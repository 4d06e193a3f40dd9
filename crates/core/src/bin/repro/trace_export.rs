//! `repro trace-export IN.jsonl [IN2.jsonl]... OUT.json` — convert
//! recorded JSONL traces into Chrome trace-event JSON, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::path::Path;
use std::process::ExitCode;

use hetsim_obs::{chrome_trace, stitch_traces};
use hetsim_runner::narrate;

use crate::args::Args;
use crate::exec::{self, pretty};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.positionals.len() < 2 {
        args.error(format!(
            "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got {} path(s)",
            args.positionals.len()
        ));
    }
    args.valid()?;
    let (output, inputs) = args.positionals.split_last().expect("length checked");
    // Multiple inputs (per-worker traces of a sharded run) stitch onto
    // disjoint track lanes before export; one input passes through
    // untouched.
    let inputs = inputs
        .iter()
        .map(|input| exec::read_trace(Path::new(input)))
        .collect::<Result<Vec<_>, String>>()?;
    let events = stitch_traces(inputs);
    let output = Path::new(output);
    exec::write(output, &pretty(&chrome_trace(&events)))?;
    narrate(&format!(
        "wrote Chrome trace ({} event(s)) to {} — load it in Perfetto or chrome://tracing",
        events.len(),
        output.display()
    ));
    Ok(ExitCode::SUCCESS)
}
