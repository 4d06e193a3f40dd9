//! Per-site branch outcome generation.
//!
//! The CPU simulator runs a *real* tournament predictor (paper Table III),
//! so branch outcomes must have learnable per-site structure rather than
//! being i.i.d. coin flips. Each synthetic branch site is one of:
//!
//! * a **loop back-edge**: taken `loop_period - 1` times, then not-taken
//!   once — perfectly learnable by local history except at the exit;
//! * a **biased data-dependent branch**: follows a per-site dominant
//!   direction with probability `bias` — a predictor approaches `bias`
//!   accuracy on these;
//! * occasionally a **call/return pair** exercising the RAS.
//!
//! The resulting misprediction rate is therefore an emergent property of
//! profile knobs plus predictor quality, exactly as in a real simulation.

use rand::rngs::StdRng;
use rand::Rng;

use crate::isa::BranchInfo;
use crate::profile::BranchBehavior;

/// Fraction of branch instances that are call/return pairs.
const CALL_RETURN_FRACTION: f64 = 0.04;

/// Synthetic code region where branch sites live (keeps branch PCs disjoint
/// from data addresses).
const CODE_BASE: u64 = 0x4000_0000;

/// Site `i`'s pc is `CODE_BASE + SITE_PC_STRIDE * i`.
const SITE_PC_STRIDE: u64 = 16;

/// Offsets from `CODE_BASE` of the call and return pcs (plus 4 per level
/// of call depth), above every site's pc.
const CALL_PCS: u64 = 0xE000;
const RETURN_PCS: u64 = 0xF000;

/// Most branch sites a profile may have: more would reach the call pcs.
pub const MAX_SITES: u32 = (CALL_PCS / SITE_PC_STRIDE) as u32;

/// Stateful branch outcome generator for one thread.
#[derive(Debug, Clone)]
pub struct BranchModel {
    behavior: BranchBehavior,
    /// Per-site state: loop counters for loop sites, dominant direction for
    /// biased sites.
    sites: Vec<SiteState>,
    /// Round-robin cursor over sites (program phases revisit the same
    /// branches repeatedly, so we cycle rather than sample uniformly).
    cursor: usize,
    /// Depth of the simulated call stack, to keep calls/returns balanced.
    call_depth: u32,
}

#[derive(Debug, Clone)]
enum SiteState {
    Loop { count: u32 },
    Biased { taken_dominant: bool },
}

impl BranchModel {
    /// Creates the model; site kinds and biases are fixed by `seed`-driven
    /// sampling at construction so the *static* program is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `behavior` fails validation.
    pub fn new(behavior: BranchBehavior, rng: &mut StdRng) -> Self {
        behavior.validate().expect("valid branch behavior");
        let sites = (0..behavior.sites)
            .map(|_| {
                if rng.gen_bool(behavior.loop_fraction) {
                    SiteState::Loop { count: 0 }
                } else {
                    SiteState::Biased {
                        taken_dominant: rng.gen_bool(0.5),
                    }
                }
            })
            .collect();
        BranchModel {
            behavior,
            sites,
            cursor: 0,
            call_depth: 0,
        }
    }

    /// Generates the next dynamic branch instance.
    pub fn next_branch(&mut self, rng: &mut StdRng) -> BranchInfo {
        // Call/return handling first: returns only when the stack is
        // non-empty, calls with a small probability.
        if self.call_depth > 0 && rng.gen_bool(CALL_RETURN_FRACTION) {
            self.call_depth -= 1;
            return BranchInfo {
                pc: CODE_BASE + RETURN_PCS + u64::from(self.call_depth) * 4,
                taken: true,
                is_call: false,
                is_return: true,
            };
        }
        if self.call_depth < 24 && rng.gen_bool(CALL_RETURN_FRACTION) {
            let pc = CODE_BASE + CALL_PCS + u64::from(self.call_depth) * 4;
            self.call_depth += 1;
            return BranchInfo {
                pc,
                taken: true,
                is_call: true,
                is_return: false,
            };
        }

        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.sites.len();
        let pc = CODE_BASE + (idx as u64) * SITE_PC_STRIDE;
        let taken = match &mut self.sites[idx] {
            SiteState::Loop { count } => {
                *count += 1;
                if *count >= self.behavior.loop_period {
                    *count = 0;
                    false // loop exit
                } else {
                    true // back-edge taken
                }
            }
            SiteState::Biased { taken_dominant } => {
                let dominant = *taken_dominant;
                if rng.gen_bool(self.behavior.bias) {
                    dominant
                } else {
                    !dominant
                }
            }
        };
        BranchInfo {
            pc,
            taken,
            is_call: false,
            is_return: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn behavior() -> BranchBehavior {
        BranchBehavior {
            sites: 32,
            bias: 0.95,
            loop_fraction: 0.5,
            loop_period: 10,
        }
    }

    #[test]
    fn loop_sites_follow_period() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = BranchModel::new(
            BranchBehavior {
                sites: 1,
                bias: 0.95,
                loop_fraction: 1.0,
                loop_period: 4,
            },
            &mut rng,
        );
        // Collect outcomes of the single (loop) site, skipping call/returns.
        let mut outcomes = Vec::new();
        while outcomes.len() < 8 {
            let b = m.next_branch(&mut rng);
            if !b.is_call && !b.is_return {
                outcomes.push(b.taken);
            }
        }
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn biased_sites_follow_dominant_direction() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = BranchModel::new(
            BranchBehavior {
                sites: 8,
                bias: 0.9,
                loop_fraction: 0.0,
                loop_period: 10,
            },
            &mut rng,
        );
        // Per-site dominant-direction agreement should be ~bias.
        let mut per_site: std::collections::HashMap<u64, (u32, u32)> = Default::default();
        for _ in 0..20_000 {
            let b = m.next_branch(&mut rng);
            if b.is_call || b.is_return {
                continue;
            }
            let e = per_site.entry(b.pc).or_insert((0, 0));
            if b.taken {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        for (pc, (t, n)) in per_site {
            let total = t + n;
            let dominant = t.max(n) as f64 / total as f64;
            assert!(
                (0.85..=0.95).contains(&dominant),
                "site {pc:x} dominant fraction {dominant}"
            );
        }
    }

    #[test]
    fn calls_and_returns_stay_balanced() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = BranchModel::new(behavior(), &mut rng);
        let mut depth: i64 = 0;
        for _ in 0..50_000 {
            let b = m.next_branch(&mut rng);
            if b.is_call {
                depth += 1;
            }
            if b.is_return {
                depth -= 1;
            }
            assert!(depth >= 0, "return without a call");
            assert!(depth <= 24, "runaway call depth");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = BranchModel::new(behavior(), &mut rng);
            (0..1000)
                .map(|_| m.next_branch(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }
}
