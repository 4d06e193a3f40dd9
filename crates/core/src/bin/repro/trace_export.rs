//! `repro trace-export IN.jsonl OUT.json` — convert a recorded JSONL
//! trace into Chrome trace-event JSON, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::path::Path;
use std::process::ExitCode;

use hetsim_obs::{chrome_trace, parse_jsonl};
use hetsim_runner::narrate;

use crate::args::Args;
use crate::exec::{self, pretty};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.positionals.len() != 2 {
        args.error(format!(
            "trace-export expects IN.jsonl and OUT.json, got {} path(s)",
            args.positionals.len()
        ));
    }
    args.valid()?;
    let input = Path::new(&args.positionals[0]);
    let output = Path::new(&args.positionals[1]);
    let events =
        parse_jsonl(&exec::read(input)?).map_err(|e| format!("{}: {e}", input.display()))?;
    exec::write(output, &pretty(&chrome_trace(&events)))?;
    narrate(&format!(
        "wrote Chrome trace ({} event(s)) to {} — load it in Perfetto or chrome://tracing",
        events.len(),
        output.display()
    ));
    Ok(ExitCode::SUCCESS)
}
