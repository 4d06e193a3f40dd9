//! The `hetsim-profile-v1` cycle-attribution document.
//!
//! The simulators charge every cycle of every core/CU to one top-down
//! [`CycleClass`]; this module is where those per-unit counts become an
//! exportable artifact:
//!
//! * [`CycleProfile`] — the document itself: rows keyed by
//!   `(design, unit)`, merged deterministically whatever the order;
//! * [`Observations`] — what one simulation returns beside its outcome
//!   (its units' rows and its event-driven skip counts), which the
//!   runner caches with the outcome and folds per campaign;
//! * [`CycleProfile::folded`] — folded-stack text
//!   (`design;unit;class count`), directly consumable by standard
//!   flamegraph tooling (`flamegraph.pl`, inferno, speedscope);
//! * [`CycleProfile::counter_track_doc`] — Perfetto counter tracks
//!   (`"ph": "C"`) in the same Chrome trace-event document shape as
//!   [`crate::chrome_trace`], one track per design with one counter
//!   series per class.
//!
//! The readers are strict: a document they accept serializes back to
//! exactly the value tree they read.

use hetsim_stats::attribution::ClassCounts;
use hetsim_stats::Histogram;
use serde::value::Value;
use serde::{Deserialize, Error, Serialize};

pub use hetsim_stats::attribution::CycleClass;

/// Schema tag of the profile document.
pub const PROFILE_SCHEMA: &str = "hetsim-profile-v1";

/// One unit's attribution inside a [`CycleProfile`]: the design it ran
/// under, the unit name (`core0`, `cu3`, ...), its class totals, and
/// any named histograms (occupancy, latency distributions) the
/// simulator recorded for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Design column name (e.g. `AdvHet`).
    pub design: String,
    /// Unit within the design (`core0`, `cu3`, ...).
    pub unit: String,
    /// Cycles per top-down class; sums to [`ProfileRow::cycles`].
    pub classes: ClassCounts,
    /// Total attributed cycles for this unit.
    pub cycles: u64,
    /// Named histograms (e.g. `rob`, `iq`, `lsq`, `residency`,
    /// `mem_hit_latency`), kept sorted by name; merged name-wise.
    pub histograms: Vec<(String, Histogram)>,
}

impl ProfileRow {
    /// A row with no cycles and no histograms.
    pub fn new(design: impl Into<String>, unit: impl Into<String>) -> Self {
        ProfileRow {
            design: design.into(),
            unit: unit.into(),
            classes: ClassCounts::new(),
            cycles: 0,
            histograms: Vec::new(),
        }
    }

    /// Adds a named histogram (merging if the name already exists),
    /// skipping empty histograms (no sample of that kind).
    pub fn add_histogram(&mut self, name: &str, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        match self
            .histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.histograms[i].1.merge(h),
            Err(i) => self.histograms.insert(i, (name.to_string(), *h)),
        }
    }

    /// Folds another row for the same `(design, unit)` key in.
    fn merge(&mut self, other: &ProfileRow) {
        self.classes.merge(&other.classes);
        self.cycles = self.cycles.saturating_add(other.cycles);
        for (name, h) in &other.histograms {
            self.add_histogram(name, h);
        }
    }
}

impl Serialize for ProfileRow {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("design".into(), Value::Str(self.design.clone())),
            ("unit".into(), Value::Str(self.unit.clone())),
            ("cycles".into(), Value::UInt(self.cycles)),
            ("classes".into(), self.classes.to_value()),
            (
                "histograms".into(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for ProfileRow {
    /// Strict: `cycles` must equal the class total, and `histograms`
    /// must be an object whose names are sorted and distinct.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::custom(format!("ProfileRow has no `{name}`")))
        };
        let str_field = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| Error::custom(format!("ProfileRow `{name}` is not a string")))
        };
        let cycles = field("cycles")?
            .as_u64()
            .ok_or_else(|| Error::custom("ProfileRow `cycles` is not unsigned"))?;
        let classes = ClassCounts::from_value(field("classes")?)?;
        if classes.total() != cycles {
            return Err(Error::custom(format!(
                "ProfileRow `cycles` {cycles} differs from its class total {}",
                classes.total()
            )));
        }
        let entries = field("histograms")?
            .as_object()
            .ok_or_else(|| Error::custom("ProfileRow `histograms` is not an object"))?;
        let mut histograms: Vec<(String, Histogram)> = Vec::with_capacity(entries.len());
        for (name, hv) in entries {
            if histograms.last().is_some_and(|(last, _)| last >= name) {
                return Err(Error::custom(format!(
                    "ProfileRow `histograms` entry `{name}` is out of order or repeated"
                )));
            }
            histograms.push((name.clone(), Histogram::from_value(hv)?));
        }
        Ok(ProfileRow {
            design: str_field("design")?,
            unit: str_field("unit")?,
            classes,
            cycles,
            histograms,
        })
    }
}

/// The cycle-attribution document: per-`(design, unit)` rows, kept
/// sorted by key so serialization and merges are deterministic
/// regardless of fold order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleProfile {
    rows: Vec<ProfileRow>,
}

impl CycleProfile {
    /// An empty profile.
    pub fn new() -> Self {
        CycleProfile::default()
    }

    /// The rows, sorted by `(design, unit)`.
    pub fn rows(&self) -> &[ProfileRow] {
        &self.rows
    }

    /// `true` when no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds `row` in: merged into the existing `(design, unit)` row if
    /// one exists, inserted in sorted position otherwise.
    pub fn merge_row(&mut self, row: ProfileRow) {
        let key = (row.design.as_str(), row.unit.as_str());
        match self
            .rows
            .binary_search_by(|r| (r.design.as_str(), r.unit.as_str()).cmp(&key))
        {
            Ok(i) => self.rows[i].merge(&row),
            Err(i) => self.rows.insert(i, row),
        }
    }

    /// Folds another profile in, row by row.
    pub fn merge(&mut self, other: &CycleProfile) {
        for row in &other.rows {
            self.merge_row(row.clone());
        }
    }

    /// Folded-stack export: one `design;unit;class count` line per
    /// nonzero class, consumable by standard flamegraph tools.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            for (class, cycles) in row.classes.iter() {
                if cycles > 0 {
                    out.push_str(&format!(
                        "{};{};{} {}\n",
                        row.design,
                        row.unit,
                        class.name(),
                        cycles
                    ));
                }
            }
        }
        out
    }

    /// Perfetto counter-track export in the Chrome trace-event document
    /// shape of [`crate::chrome_trace`]: one lane (`tid`) per design
    /// with a `thread_name` metadata record, and per unit one `"C"`
    /// (counter) event at `ts = unit index` whose args carry every
    /// class's cycle count — Perfetto renders each design as a stacked
    /// multi-series counter track over its units.
    pub fn counter_track_doc(&self) -> Value {
        let mut designs: Vec<&str> = self.rows.iter().map(|r| r.design.as_str()).collect();
        designs.dedup(); // rows are sorted by design already
        let mut events: Vec<Value> = Vec::new();
        for (tid, design) in designs.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(0)),
                ("tid".into(), Value::UInt(tid as u64)),
                (
                    "args".into(),
                    Value::Object(vec![(
                        "name".into(),
                        Value::Str(format!("{design} cycle classes")),
                    )]),
                ),
            ]));
            for (ts, row) in self.rows.iter().filter(|r| r.design == *design).enumerate() {
                events.push(Value::Object(vec![
                    ("name".into(), Value::Str(format!("{design} cycles"))),
                    ("cat".into(), Value::Str("profile".into())),
                    ("ph".into(), Value::Str("C".into())),
                    ("ts".into(), Value::UInt(ts as u64)),
                    ("pid".into(), Value::UInt(0)),
                    ("tid".into(), Value::UInt(tid as u64)),
                    ("args".into(), row.classes.to_value()),
                ]));
            }
        }
        Value::Object(vec![
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("traceEvents".into(), Value::Array(events)),
        ])
    }
}

impl Serialize for CycleProfile {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::Str(PROFILE_SCHEMA.into())),
            (
                "rows".into(),
                Value::Array(self.rows.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl Deserialize for CycleProfile {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let found = match v.get("schema").and_then(Value::as_str) {
            Some(PROFILE_SCHEMA) => None,
            Some(other) => Some(format!("{other:?}")),
            None => Some("no schema string".to_string()),
        };
        if let Some(found) = found {
            return Err(Error::custom(format!(
                "expected schema {PROFILE_SCHEMA:?}, found {found}"
            )));
        }
        let rows = v
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::custom("CycleProfile has no `rows`"))?;
        let mut profile = CycleProfile::new();
        for row in rows {
            let row = ProfileRow::from_value(row)?;
            let key = |r: &ProfileRow| (r.design.clone(), r.unit.clone());
            if profile
                .rows
                .last()
                .is_some_and(|last| key(last) >= key(&row))
            {
                return Err(Error::custom(format!(
                    "CycleProfile `rows`: ({}, {}) is out of order or repeated",
                    row.design, row.unit
                )));
            }
            profile.rows.push(row);
        }
        Ok(profile)
    }
}

/// What one simulation observed beside its outcome: its units' cycle
/// attribution and how far its event-driven step jumped. A job returns
/// this with its outcome; the runner caches the two as one record and
/// folds every answered job's observations per campaign, so a warm run
/// reports what a cold one does. Never part of a job key or of the
/// regression-checked dump sections.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Observations {
    /// One row per simulated unit (`core{t}` / `cu{i}`).
    pub profile: CycleProfile,
    /// Dead cycles the event-driven step jumped over, inside the
    /// measured window the rows' `cycles` cover.
    pub skipped_cycles: u64,
    /// Jumps it took to skip them.
    pub wakeup_jumps: u64,
}

impl Deserialize for Observations {
    /// Strict: skipped cycles are measured cycles, so they cannot
    /// exceed the rows' summed `cycles`.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name| serde::__private::field::<u64>(v, name, "Observations");
        let observations = Observations {
            profile: serde::__private::field(v, "profile", "Observations")?,
            skipped_cycles: field("skipped_cycles")?,
            wakeup_jumps: field("wakeup_jumps")?,
        };
        let rows = observations.profile.rows().iter();
        let cycles = rows.fold(0, |sum: u64, row| sum.saturating_add(row.cycles));
        if observations.skipped_cycles > cycles {
            return Err(Error::custom(format!(
                "Observations `skipped_cycles` {} exceeds the rows' summed `cycles` {cycles}",
                observations.skipped_cycles
            )));
        }
        Ok(observations)
    }
}

impl Observations {
    /// Folds another simulation's observations in.
    pub fn merge(&mut self, other: &Observations) {
        self.profile.merge(&other.profile);
        self.skipped_cycles = self.skipped_cycles.saturating_add(other.skipped_cycles);
        self.wakeup_jumps = self.wakeup_jumps.saturating_add(other.wakeup_jumps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(design: &str, unit: &str, retire: u64, mem: u64) -> ProfileRow {
        let mut r = ProfileRow::new(design, unit);
        r.classes.charge(CycleClass::Retire, retire);
        r.classes.charge(CycleClass::MemLatency, mem);
        r.cycles = retire + mem;
        r
    }

    #[test]
    fn rows_merge_by_key_and_stay_sorted() {
        let mut p = CycleProfile::new();
        p.merge_row(row("Conv", "core0", 10, 2));
        p.merge_row(row("AdvHet", "core1", 5, 0));
        p.merge_row(row("Conv", "core0", 1, 1));
        let keys: Vec<(&str, &str)> = p
            .rows()
            .iter()
            .map(|r| (r.design.as_str(), r.unit.as_str()))
            .collect();
        assert_eq!(keys, vec![("AdvHet", "core1"), ("Conv", "core0")]);
        assert_eq!(p.rows()[1].cycles, 14, "same-key rows merged");
        assert_eq!(p.rows()[1].classes.get(CycleClass::Retire), 11);
    }

    #[test]
    fn fragment_merge_equals_row_by_row() {
        let mut a = CycleProfile::new();
        a.merge_row(row("Conv", "core0", 3, 4));
        let mut b = CycleProfile::new();
        b.merge_row(row("Conv", "core0", 1, 0));
        b.merge_row(row("Conv", "cu0", 9, 9));
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = CycleProfile::new();
        direct.merge_row(row("Conv", "core0", 3, 4));
        direct.merge_row(row("Conv", "core0", 1, 0));
        direct.merge_row(row("Conv", "cu0", 9, 9));
        assert_eq!(merged, direct);
    }

    #[test]
    fn folded_lines_carry_all_nonzero_classes() {
        let mut p = CycleProfile::new();
        p.merge_row(row("AdvHet", "core0", 7, 3));
        let folded = p.folded();
        assert!(folded.contains("AdvHet;core0;retire 7\n"));
        assert!(folded.contains("AdvHet;core0;mem-latency 3\n"));
        assert!(
            !folded.contains("frontend"),
            "zero classes are omitted: {folded}"
        );
        // Every line parses back: `stack count`.
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert_eq!(stack.split(';').count(), 3);
            count.parse::<u64>().expect("count is a number");
        }
    }

    #[test]
    fn counter_doc_has_one_lane_per_design() {
        let mut p = CycleProfile::new();
        p.merge_row(row("AdvHet", "core0", 1, 0));
        p.merge_row(row("AdvHet", "core1", 2, 0));
        p.merge_row(row("Conv", "core0", 3, 0));
        let doc = p.counter_track_doc();
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        let counters: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .count();
        assert_eq!(metas, 2, "one thread_name per design");
        // AdvHet's two units land on the same tid at ts 0 and 1.
        assert_eq!(counters[0].get("tid"), counters[1].get("tid"));
        assert_eq!(
            counters[1].get("ts").and_then(Value::as_u64),
            Some(1),
            "units enumerate the counter x-axis"
        );
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("retire"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn document_serde_round_trips() {
        let mut p = CycleProfile::new();
        let mut r = row("AdvHet", "core0", 100, 20);
        let mut h = Histogram::new();
        h.record_n(32, 120);
        r.add_histogram("rob", &h);
        p.merge_row(r);
        let v = p.to_value();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some(PROFILE_SCHEMA)
        );
        let back = CycleProfile::from_value(&v).expect("round trip");
        assert_eq!(back, p);
        let err = CycleProfile::from_value(&Value::Object(vec![(
            "schema".into(),
            Value::Str("bogus".into()),
        )]))
        .expect_err("another schema");
        assert_eq!(
            err.to_string(),
            format!("expected schema {PROFILE_SCHEMA:?}, found \"bogus\"")
        );
        let err = CycleProfile::from_value(&Value::Object(Vec::new())).expect_err("no schema");
        assert_eq!(
            err.to_string(),
            format!("expected schema {PROFILE_SCHEMA:?}, found no schema string")
        );
    }

    /// `row`'s serialized form with `name` set to `value`.
    fn row_with(row: &ProfileRow, name: &str, value: Value) -> Value {
        let Value::Object(mut fields) = row.to_value() else {
            panic!("ProfileRow serializes to an object");
        };
        for (k, v) in &mut fields {
            if k == name {
                *v = value.clone();
            }
        }
        Value::Object(fields)
    }

    #[test]
    fn a_row_whose_histograms_are_not_an_object_is_an_error() {
        let bad = row_with(&row("Conv", "core0", 1, 0), "histograms", Value::UInt(7));
        let err = ProfileRow::from_value(&bad).expect_err("histograms must be an object");
        assert!(err.to_string().contains("`histograms`"), "{err}");
    }

    #[test]
    fn a_row_whose_cycles_differ_from_its_classes_is_an_error() {
        let bad = row_with(&row("Conv", "core0", 1, 0), "cycles", Value::UInt(99));
        let err = ProfileRow::from_value(&bad).expect_err("cycles 99 vs class total 1");
        assert!(err.to_string().contains("`cycles` 99"), "{err}");
    }

    #[test]
    fn duplicate_rows_are_an_error_not_a_merge() {
        let one = row("Conv", "core0", 1, 0).to_value();
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str(PROFILE_SCHEMA.into())),
            ("rows".into(), Value::Array(vec![one.clone(), one])),
        ]);
        let err = CycleProfile::from_value(&doc).expect_err("duplicate (design, unit)");
        assert!(err.to_string().contains("`rows`: (Conv, core0)"), "{err}");
    }

    #[test]
    fn observations_merge_and_round_trip() {
        let mut a = Observations::default();
        a.profile.merge_row(row("Conv", "core0", 30, 10));
        a.skipped_cycles = 10;
        a.wakeup_jumps = 2;
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.profile.rows()[0].cycles, 80);
        assert_eq!((b.skipped_cycles, b.wakeup_jumps), (20, 4));
        assert_eq!(Observations::from_value(&b.to_value()), Ok(b));
    }

    #[test]
    fn observations_skipping_more_than_their_cycles_are_an_error() {
        let mut o = Observations::default();
        o.profile.merge_row(row("AdvHet", "core0", 7, 3));
        o.skipped_cycles = 10;
        assert_eq!(Observations::from_value(&o.to_value()), Ok(o.clone()));
        o.skipped_cycles = 11;
        let err = Observations::from_value(&o.to_value()).expect_err("11 > 10");
        let err = err.to_string();
        assert!(
            err.contains("`skipped_cycles` 11") && err.contains("summed `cycles` 10"),
            "{err}"
        );
    }
}
