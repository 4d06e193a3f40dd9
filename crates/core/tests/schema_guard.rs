//! Guards the cache-schema contract: the on-disk result cache keys
//! every outcome under a schema tag (`cpu-v4` / `gpu-v4`), and the
//! contract (see `hetcore::campaign`) is that the tag is bumped
//! whenever the serialized outcome *layout* changes — otherwise stale
//! caches deserialize into garbage, or fail to deserialize at all,
//! silently.
//!
//! This test pins a fingerprint of the layout (the recursive shape of
//! a serialized [`hetcore::CpuOutcome`] / [`hetcore::GpuOutcome`]:
//! field names and value types, *not* values) next to the current
//! schema tags. Changing the layout without bumping the tag trips the
//! fingerprint assertion; bumping the tag without cause trips the tag
//! assertion. Either way the failure message says what to do.
//!
//! The tags guard behaviour too: a cached outcome is only valid while
//! the simulators still produce it. So the test also pins a fingerprint
//! of the files that record the simulators' output — the
//! `step_equivalence` golden and the `baselines/` dumps. Re-blessing any
//! of them changes that fingerprint, and the test fails until both tags
//! are bumped and the fingerprint re-pinned. That is conservative (an
//! appended golden section also forces a bump), and the cost of a
//! needless bump is one cold cache.

use hetcore::{run_cpu_multicore, run_gpu, CpuDesign, GpuDesign, CPU_SCHEMA, GPU_SCHEMA};
use hetsim_runner::JobKey;
use serde::value::Value;
use serde::Serialize;

/// The schema tags these fingerprints were pinned under.
const PINNED_CPU_SCHEMA: &str = "cpu-v4";
const PINNED_GPU_SCHEMA: &str = "gpu-v4";

/// Fingerprint of [`BEHAVIOUR_FILES`] under the pinned tags.
const PINNED_BEHAVIOUR: &str = "35267e3bf8d503a5063736e0de169b30";

/// The files that pin what the simulators produce, relative to the
/// workspace root.
const BEHAVIOUR_FILES: [&str; 6] = [
    "tests/goldens/step_equivalence.txt",
    "baselines/fig7.json",
    "baselines/fig8.json",
    "baselines/fig14.json",
    "baselines/ext.json",
    "baselines/frontier-fig7.json",
];

/// Fingerprints of the serialized outcome shapes under the pinned
/// tags. Regenerate by running this test and copying the values from
/// the failure message.
const PINNED_CPU_SHAPE: &str = "ecaf7dbdb3399fb60bfa077b988ef196";
const PINNED_GPU_SHAPE: &str = "32c88f82d76617abfaf6d90470487542";

/// The recursive *shape* of a serialized value: object keys and leaf
/// type tags, never values. Arrays contribute the shape of their first
/// element (outcome arrays are homogeneous).
fn shape(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(_) => "bool".into(),
        Value::Int(_) => "int".into(),
        Value::UInt(_) => "uint".into(),
        Value::Float(_) => "float".into(),
        Value::Str(_) => "str".into(),
        Value::Array(items) => match items.first() {
            Some(first) => format!("[{}]", shape(first)),
            None => "[]".into(),
        },
        Value::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", shape(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

fn fingerprint(v: &Value) -> String {
    JobKey::from_bytes(shape(v).as_bytes()).hex()
}

const BUMP_HELP: &str = "\n\
    The serialized outcome layout changed. You MUST:\n\
    1. bump the schema tag in crates/core/src/campaign.rs\n\
       (CPU_SCHEMA / GPU_SCHEMA, e.g. cpu-v2 -> cpu-v3) so stale\n\
       on-disk caches retire themselves,\n\
    2. update PINNED_*_SCHEMA and PINNED_*_SHAPE in this test to the\n\
       values printed above,\n\
    3. regenerate the goldens (UPDATE_GOLDEN=1 cargo test -p hetcore\n\
       --test golden_repro) and the baselines\n\
       (cargo run --bin repro -- baseline baselines).";

#[test]
fn cpu_outcome_layout_matches_the_pinned_schema_tag() {
    assert_eq!(
        CPU_SCHEMA, PINNED_CPU_SCHEMA,
        "CPU_SCHEMA was bumped: re-pin PINNED_CPU_SCHEMA and \
         PINNED_CPU_SHAPE here (run this test for the new fingerprint)"
    );
    let app = hetsim_trace::apps::profile("lu").expect("known app");
    let outcome = run_cpu_multicore(CpuDesign::AdvHet, 2, &app, 42, 2_000);
    let actual = fingerprint(&outcome.to_value());
    assert_eq!(
        actual,
        PINNED_CPU_SHAPE,
        "CpuOutcome shape fingerprint drifted (new fingerprint: {actual}, \
         shape: {}).{BUMP_HELP}",
        shape(&outcome.to_value())
    );
}

#[test]
fn gpu_outcome_layout_matches_the_pinned_schema_tag() {
    assert_eq!(
        GPU_SCHEMA, PINNED_GPU_SCHEMA,
        "GPU_SCHEMA was bumped: re-pin PINNED_GPU_SCHEMA and \
         PINNED_GPU_SHAPE here (run this test for the new fingerprint)"
    );
    let kernel = hetsim_gpu::kernels::profile("nbody").expect("known kernel");
    let outcome = run_gpu(GpuDesign::AdvHet, &kernel, 42);
    let actual = fingerprint(&outcome.to_value());
    assert_eq!(
        actual,
        PINNED_GPU_SHAPE,
        "GpuOutcome shape fingerprint drifted (new fingerprint: {actual}, \
         shape: {}).{BUMP_HELP}",
        shape(&outcome.to_value())
    );
}

#[test]
fn reblessed_goldens_bump_both_schema_tags() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut bytes = Vec::new();
    for file in BEHAVIOUR_FILES {
        let text = std::fs::read(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        bytes.extend_from_slice(file.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&text);
        bytes.push(0);
    }
    let actual = JobKey::from_bytes(&bytes).hex();
    if actual == PINNED_BEHAVIOUR {
        return;
    }
    let both_bumped = CPU_SCHEMA != PINNED_CPU_SCHEMA && GPU_SCHEMA != PINNED_GPU_SCHEMA;
    assert!(
        both_bumped,
        "the step_equivalence golden or a baselines/ dump was re-blessed \
         (new fingerprint: {actual}), so cached outcomes of the old \
         simulators are stale. You MUST:\n\
         1. bump BOTH schema tags in crates/core/src/campaign.rs\n\
            (CPU_SCHEMA and GPU_SCHEMA, e.g. cpu-v2 -> cpu-v3 and\n\
            gpu-v2 -> gpu-v3) so stale on-disk caches retire themselves,\n\
         2. re-bless the baselines, whose schema section records the tags\n\
            (cargo run --bin repro -- baseline baselines),\n\
         3. rerun this test and re-pin PINNED_*_SCHEMA and\n\
            PINNED_BEHAVIOUR to the values it prints."
    );
    panic!(
        "both schema tags were bumped ({CPU_SCHEMA}, {GPU_SCHEMA}): re-pin \
         PINNED_CPU_SCHEMA, PINNED_GPU_SCHEMA and PINNED_BEHAVIOUR \
         (new fingerprint: {actual}) here"
    );
}

#[test]
fn shape_ignores_values_but_not_structure() {
    let a = Value::Object(vec![
        ("x".into(), Value::UInt(1)),
        ("y".into(), Value::Float(0.5)),
    ]);
    let b = Value::Object(vec![
        ("x".into(), Value::UInt(999)),
        ("y".into(), Value::Float(2.25)),
    ]);
    assert_eq!(shape(&a), shape(&b), "values never affect the shape");
    let c = Value::Object(vec![
        ("x".into(), Value::UInt(1)),
        ("z".into(), Value::Float(0.5)),
    ]);
    assert_ne!(shape(&a), shape(&c), "renamed fields change the shape");
}
