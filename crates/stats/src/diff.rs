//! The one name join: aligning two `(name, value)` lists by name.
//!
//! Every comparison of two artifacts reduces to one operation: pair the
//! entries both lists give under one name, and mark the rest as present
//! on one side only. The regression gate's counter, metric and tag
//! lanes (`hetcore::regression`) and `repro bench --compare`
//! (`hetsim_bench::compare`) all align through [`align`]; each supplies
//! only its own rule for a name both sides hold.
//!
//! The join is *total* — every name of either list comes out exactly
//! once — so a gate built on it inspects everything both sides hold.
//! Names are unique on each side: a [`counters!`](crate::counters)
//! struct's `iter()` yields each name once, and the readers that flatten
//! documents into names refuse a document that files two values under
//! one name. So the join needs no first-wins rule, and a repeated name
//! is a caller's bug that [`align`] panics on.

use std::fmt::Debug;

/// Where [`align`] found a name, with its value on each side that has
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side<V> {
    /// In both lists: the baseline's value, then the candidate's.
    Both(V, V),
    /// In the baseline only (removed by the candidate).
    Baseline(V),
    /// In the candidate only (added since the baseline).
    Candidate(V),
}

/// Aligns two `(name, value)` lists by name.
///
/// Yields every name of either list exactly once: the baseline's names
/// in baseline order, each marked [`Side::Both`] or [`Side::Baseline`],
/// then the names only the candidate has, in candidate order. Counter
/// structs align directly: `align(a.iter(), b.iter())`.
///
/// # Panics
///
/// Panics naming the name if a name repeats within either list.
pub fn align<N, V>(
    baseline: impl IntoIterator<Item = (N, V)>,
    candidate: impl IntoIterator<Item = (N, V)>,
) -> Vec<(N, Side<V>)>
where
    N: Ord + Debug,
{
    let mut candidate: Vec<(N, Option<V>)> = candidate
        .into_iter()
        .map(|(name, value)| (name, Some(value)))
        .collect();
    let by_name = name_order(candidate.iter().map(|(name, _)| name), "candidate");
    let mut aligned: Vec<(N, Side<V>)> = baseline
        .into_iter()
        .map(|(name, b)| {
            let at = by_name.binary_search_by(|&i| candidate[i].0.cmp(&name));
            match at.ok().and_then(|at| candidate[by_name[at]].1.take()) {
                Some(c) => (name, Side::Both(b, c)),
                None => (name, Side::Baseline(b)),
            }
        })
        .collect();
    name_order(aligned.iter().map(|(name, _)| name), "baseline");
    aligned.extend(
        candidate
            .into_iter()
            .filter_map(|(name, c)| Some((name, Side::Candidate(c?)))),
    );
    aligned
}

/// The indices of `names` in name order.
///
/// # Panics
///
/// Panics naming the name if a name repeats.
fn name_order<'a, N: Ord + Debug + 'a>(
    names: impl IntoIterator<Item = &'a N>,
    list: &str,
) -> Vec<usize> {
    let names: Vec<&N> = names.into_iter().collect();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&i, &j| names[i].cmp(names[j]));
    for pair in order.windows(2) {
        let name = names[pair[0]];
        assert!(
            name != names[pair[1]],
            "align: the {list} lists {name:?} twice"
        );
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_diff_empty() {
        let a = [("cycles", 10), ("loads", 3)];
        assert_eq!(
            align(a, a),
            [("cycles", Side::Both(10, 10)), ("loads", Side::Both(3, 3))]
        );
    }

    #[test]
    fn changed_values_report_signed_delta_in_baseline_order() {
        let a = [("cycles", 10), ("loads", 3), ("stores", 7)];
        let b = [("stores", 5), ("loads", 3), ("cycles", 12)];
        assert_eq!(
            align(a, b),
            [
                ("cycles", Side::Both(10, 12)),
                ("loads", Side::Both(3, 3)),
                ("stores", Side::Both(7, 5)),
            ]
        );
    }

    #[test]
    fn one_sided_names_are_classified() {
        let a = [("old", 1), ("kept", 2), ("gone", 4)];
        let b = [("new", 9), ("kept", 2), ("late", 5)];
        assert_eq!(
            align(a, b),
            [
                ("old", Side::Baseline(1)),
                ("kept", Side::Both(2, 2)),
                ("gone", Side::Baseline(4)),
                ("new", Side::Candidate(9)),
                ("late", Side::Candidate(5)),
            ],
            "baseline order, then the candidate-only names in candidate order"
        );
    }

    #[test]
    #[should_panic(expected = "the baseline lists \"a\" twice")]
    fn a_name_repeated_in_the_baseline_panics() {
        align([("a", 1), ("b", 2), ("a", 3)], [("a", 1)]);
    }

    #[test]
    #[should_panic(expected = "the candidate lists \"a\" twice")]
    fn a_name_repeated_in_the_candidate_panics() {
        align([("b", 2)], [("a", 1), ("a", 1)]);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // The join moves values and never computes on them.
        let a = [("x", u64::MAX), ("y", 0)];
        let b = [("x", 0), ("y", u64::MAX)];
        assert_eq!(
            align(a, b),
            [
                ("x", Side::Both(u64::MAX, 0)),
                ("y", Side::Both(0, u64::MAX))
            ]
        );
    }
}
