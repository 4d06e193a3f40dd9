//! Tournament branch predictor (paper Table III).
//!
//! "Tournament: 2-level, 32-entry RAS, 4-way 2K-entry BTB". The predictor
//! combines a two-level *local* component (per-branch history indexing a
//! pattern table) with a *global* gshare component, arbitrated by a chooser
//! table indexed by global history. Taken branches additionally need a BTB
//! hit to redirect fetch in time; returns are predicted through the RAS.
//!
//! The predictor lives with the traces because the core trains it at
//! dispatch in program order: a branch's outcome is then a pure function
//! of the stream prefix and the [`PredictorConfig`], and the trace store
//! walks it once per stream and config (see [`crate::cache`]).

use crate::isa::BranchInfo;

/// A saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const WEAKLY_TAKEN: Counter2 = Counter2(2);

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        // Branchless saturating walk: +1 clamped to 3 on taken, -1
        // clamped to 0 on not-taken. Identical to the naive
        // min/saturating_sub pair, but compiles to straight-line
        // arithmetic on the predictor-update hot path.
        let delta = i8::from(taken) * 2 - 1;
        self.0 = (self.0 as i8 + delta).clamp(0, 3) as u8;
    }
}

/// Sizing knobs for the tournament predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the local history table (power of two).
    pub local_entries: usize,
    /// Bits of local history per branch.
    pub local_history_bits: u32,
    /// Bits of global history (sizes the global and chooser tables).
    pub global_history_bits: u32,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl Default for PredictorConfig {
    /// The paper's Table III predictor.
    fn default() -> Self {
        PredictorConfig {
            local_entries: 1024,
            local_history_bits: 10,
            global_history_bits: 12,
            btb_entries: 2048,
            btb_ways: 4,
            ras_entries: 32,
        }
    }
}

/// Most bits of local history: each history is a `u16`.
const MAX_LOCAL_HISTORY_BITS: u32 = 15;

/// Most bits of global history: the global and chooser tables hold
/// `2^bits` counters each.
const MAX_GLOBAL_HISTORY_BITS: u32 = 24;

/// Most BTB ways: a set's live-entry count is a `u8`.
const MAX_BTB_WAYS: usize = 128;

impl PredictorConfig {
    /// Checks that [`TournamentPredictor::new`] can build these tables:
    /// power-of-two table sizes, histories that fit their registers, and
    /// a BTB associativity that splits the BTB into a power-of-two
    /// number of sets.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.local_entries.is_power_of_two() {
            return Err(format!(
                "predictor.local_entries must be a power of two, got {}",
                self.local_entries
            ));
        }
        if self.local_history_bits > MAX_LOCAL_HISTORY_BITS {
            return Err(format!(
                "predictor.local_history_bits must be at most {MAX_LOCAL_HISTORY_BITS}, got {}",
                self.local_history_bits
            ));
        }
        if self.global_history_bits > MAX_GLOBAL_HISTORY_BITS {
            return Err(format!(
                "predictor.global_history_bits must be at most {MAX_GLOBAL_HISTORY_BITS}, got {}",
                self.global_history_bits
            ));
        }
        if !self.btb_entries.is_power_of_two() {
            return Err(format!(
                "predictor.btb_entries must be a power of two, got {}",
                self.btb_entries
            ));
        }
        let ways = self.btb_ways;
        if !ways.is_power_of_two() || ways > self.btb_entries.min(MAX_BTB_WAYS) {
            return Err(format!(
                "predictor.btb_ways must be a power of two from 1 to {}, got {ways}",
                self.btb_entries.min(MAX_BTB_WAYS)
            ));
        }
        Ok(())
    }
}

/// Outcome of a prediction, consumed by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Whether a taken prediction could actually redirect fetch (BTB or
    /// RAS supplied a target). A taken branch without a target is a
    /// misfetch and costs the full redirect penalty.
    pub target_known: bool,
}

/// The tournament predictor with BTB and RAS.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    cfg: PredictorConfig,
    /// Per-branch local histories.
    local_history: Vec<u16>,
    /// Local pattern table.
    local_pattern: Vec<Counter2>,
    /// Global (gshare) table.
    global: Vec<Counter2>,
    /// Chooser: true-ward counters favour the *global* component.
    chooser: Vec<Counter2>,
    /// Global history register.
    ghr: u64,
    /// BTB: flat `sets x ways` tag rows, MRU-first (same layout idea as
    /// `hetsim_mem::Cache`); `btb_lens[set]` live entries per row.
    btb: Vec<u64>,
    btb_lens: Vec<u8>,
    /// `sets - 1` (sets are a power of two, so set selection is a mask,
    /// not a division).
    btb_set_mask: usize,
    /// Return address stack (depth only; targets are exact in the trace).
    ras_depth: usize,
    /// Count of RAS overflows (pushes beyond capacity corrupt the stack).
    ras_corrupted: u32,
}

impl TournamentPredictor {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`PredictorConfig::validate`].
    pub fn new(cfg: PredictorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid predictor: {e}");
        }
        let local_pattern_entries = 1usize << cfg.local_history_bits;
        let global_entries = 1usize << cfg.global_history_bits;
        let btb_sets = cfg.btb_entries / cfg.btb_ways;
        TournamentPredictor {
            local_history: vec![0; cfg.local_entries],
            local_pattern: vec![Counter2::WEAKLY_TAKEN; local_pattern_entries],
            global: vec![Counter2::WEAKLY_TAKEN; global_entries],
            chooser: vec![Counter2::WEAKLY_TAKEN; global_entries],
            ghr: 0,
            btb: vec![0; btb_sets * cfg.btb_ways],
            btb_lens: vec![0; btb_sets],
            btb_set_mask: btb_sets - 1,
            ras_depth: 0,
            ras_corrupted: 0,
            cfg,
        }
    }

    fn local_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.cfg.local_entries - 1)
    }

    fn global_index(&self, pc: u64) -> usize {
        let mask = (1usize << self.cfg.global_history_bits) - 1;
        ((self.ghr as usize) ^ ((pc >> 2) as usize)) & mask
    }

    /// The chooser is indexed by PC so that each branch site learns which
    /// component (local vs. global) predicts it better. (A GHR-indexed
    /// chooser, as in the Alpha 21264, relies on correlated path history;
    /// per-site indexing is the robust choice and is also common practice.)
    fn chooser_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & ((1usize << self.cfg.global_history_bits) - 1)
    }

    /// Predicts a conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> Prediction {
        let lh = self.local_history[self.local_index(pc)] as usize
            & ((1usize << self.cfg.local_history_bits) - 1);
        let local = self.local_pattern[lh].predict();
        let global = self.global[self.global_index(pc)].predict();
        let use_global = self.chooser[self.chooser_index(pc)].predict();
        let taken = if use_global { global } else { local };
        let target_known = !taken || self.btb_hit(pc);
        Prediction {
            taken,
            target_known,
        }
    }

    /// Trains the predictor with the architectural outcome and updates the
    /// BTB for taken branches.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let li = self.local_index(pc);
        let lh = self.local_history[li] as usize & ((1usize << self.cfg.local_history_bits) - 1);
        let gi = self.global_index(pc);
        let ci = self.chooser_index(pc);

        let local_correct = self.local_pattern[lh].predict() == taken;
        let global_correct = self.global[gi].predict() == taken;
        if local_correct != global_correct {
            // Move the chooser toward whichever component was right.
            self.chooser[ci].update(global_correct);
        }
        self.local_pattern[lh].update(taken);
        self.global[gi].update(taken);

        // Histories.
        let lh_mask = (1u16 << self.cfg.local_history_bits) - 1;
        self.local_history[li] = ((self.local_history[li] << 1) | u16::from(taken)) & lh_mask;
        self.ghr = (self.ghr << 1) | u64::from(taken);

        if taken {
            self.btb_install(pc);
        }
    }

    fn btb_set(&self, pc: u64) -> usize {
        (pc >> 2) as usize & self.btb_set_mask
    }

    fn btb_hit(&self, pc: u64) -> bool {
        let base = self.btb_set(pc) * self.cfg.btb_ways;
        let len = self.btb_lens[self.btb_set(pc)] as usize;
        self.btb[base..base + len].contains(&pc)
    }

    fn btb_install(&mut self, pc: u64) {
        let ways = self.cfg.btb_ways;
        let set_idx = self.btb_set(pc);
        let base = set_idx * ways;
        let mut len = self.btb_lens[set_idx] as usize;
        let row = &mut self.btb[base..base + len];
        if let Some(pos) = row.iter().position(|&t| t == pc) {
            // Refresh to MRU.
            row[..=pos].rotate_right(1);
            return;
        }
        if len < ways {
            len += 1;
            self.btb_lens[set_idx] = len as u8;
        }
        self.btb[base..base + len].rotate_right(1);
        self.btb[base] = pc;
    }

    /// Records a call: pushes the RAS. Returns beyond capacity corrupt the
    /// bottom of the stack.
    pub fn push_call(&mut self) {
        if self.ras_depth == self.cfg.ras_entries {
            self.ras_corrupted += 1;
        } else {
            self.ras_depth += 1;
        }
    }

    /// Predicts a return: pops the RAS and reports whether the predicted
    /// target is trustworthy. Frames that were pushed past capacity
    /// overwrote the bottom of the (circular) stack, so the corresponding
    /// deep returns mispredict.
    pub fn pop_return(&mut self) -> bool {
        if self.ras_depth > 0 {
            self.ras_depth -= 1;
            true
        } else if self.ras_corrupted > 0 {
            self.ras_corrupted -= 1;
            false
        } else {
            false
        }
    }

    /// Predicts the dispatched branch `b` and trains on its outcome;
    /// returns whether the prediction was wrong (direction, BTB target,
    /// or RAS).
    pub fn mispredicts(&mut self, b: &BranchInfo) -> bool {
        if b.is_call {
            self.push_call();
            // Calls are unconditional with known targets.
            self.update(b.pc, true);
            return false;
        }
        if b.is_return {
            return !self.pop_return();
        }
        let pred = self.predict(b.pc);
        self.update(b.pc, b.taken);
        let direction_wrong = pred.taken != b.taken;
        let target_missing = b.taken && pred.taken && !pred.target_known;
        direction_wrong || target_missing
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        let pc = 0x4000_0000;
        for _ in 0..16 {
            p.update(pc, true);
        }
        let pred = p.predict(pc);
        assert!(pred.taken);
        assert!(pred.target_known, "BTB learned the target");
    }

    #[test]
    fn learns_loop_pattern_via_local_history() {
        // Pattern: TTTN repeated. Local 2-level should learn it ~perfectly.
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        let pc = 0x4000_0010;
        let pattern = [true, true, true, false];
        // Train.
        for i in 0..400 {
            p.update(pc, pattern[i % 4]);
        }
        // Measure.
        let mut correct = 0;
        for i in 0..400 {
            let actual = pattern[i % 4];
            if p.predict(pc).taken == actual {
                correct += 1;
            }
            p.update(pc, actual);
        }
        assert!(correct > 380, "loop pattern accuracy {correct}/400");
    }

    #[test]
    fn accuracy_tracks_bias_on_random_branches() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        let mut correct = 0;
        let n = 20_000;
        for i in 0..n {
            let pc = 0x4000_0000 + (i % 16) * 16;
            let actual = rng.gen_bool(0.9);
            if p.predict(pc).taken == actual {
                correct += 1;
            }
            p.update(pc, actual);
        }
        let acc = correct as f64 / n as f64;
        assert!(
            (0.85..0.95).contains(&acc),
            "accuracy {acc} should approach bias 0.9"
        );
    }

    #[test]
    fn cold_taken_branch_has_unknown_target() {
        let p = TournamentPredictor::new(PredictorConfig::default());
        let pred = p.predict(0x4000_0040);
        if pred.taken {
            assert!(!pred.target_known);
        }
    }

    #[test]
    fn ras_balanced_calls_predict_returns() {
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        for _ in 0..8 {
            p.push_call();
        }
        for _ in 0..8 {
            assert!(p.pop_return());
        }
        assert!(!p.pop_return(), "underflow mispredicts");
    }

    #[test]
    fn ras_overflow_corrupts() {
        let mut cfg = PredictorConfig::default();
        cfg.ras_entries = 2;
        let mut p = TournamentPredictor::new(cfg);
        p.push_call();
        p.push_call();
        p.push_call(); // overflow
        assert!(p.pop_return());
        assert!(p.pop_return());
        assert!(!p.pop_return(), "overflowed frame mispredicts");
    }
}
