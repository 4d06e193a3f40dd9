//! A live, in-place campaign dashboard (`repro --progress=dashboard`).
//!
//! Where [`StderrSink`](crate::StderrSink) appends one line per job —
//! fine for logs, noisy for a 100-job sweep — [`DashboardSink`] keeps
//! a small block of lines at the bottom of the terminal and redraws it
//! in place with ANSI cursor movement: overall completion, cache hit
//! ratio, throughput and ETA, plus a per-design job count so a sweep's
//! shape is visible while it runs.
//!
//! The sink assumes its writer is a terminal that understands ANSI
//! escapes; the `repro` CLI checks `stderr.is_terminal()` and falls
//! back to the plain line sink when piped, so trace files and CI logs
//! never contain control sequences. Redraws are rate-limited (~10/s)
//! so a cache-warm campaign finishing thousands of jobs per second is
//! not bottlenecked on terminal I/O. Time comes from an injected
//! [`Clock`], which makes both the rate limit and the ETA math
//! deterministic under test.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use hetsim_obs::Clock;

use crate::progress::{design_of, ProgressEvent, ProgressSink, Provenance};

/// Minimum interval between in-place redraws, in microseconds.
const REDRAW_INTERVAL_US: u64 = 100_000;

#[derive(Default)]
struct DashState {
    /// Jobs expected across all batches seen so far.
    total: usize,
    /// Jobs finished across all batches.
    done: usize,
    /// Finished jobs answered from a cache layer.
    cache_hits: usize,
    /// Clock stamp of the first `BatchStarted`.
    started_us: Option<u64>,
    /// Clock stamp of the last redraw.
    last_draw_us: u64,
    /// Lines currently occupied by the live block (0 = nothing drawn).
    drawn_lines: usize,
    /// Per design: finished jobs and accumulated simulated seconds
    /// (BTreeMap for stable line order).
    per_design: BTreeMap<String, (usize, f64)>,
    /// Expected jobs per design, from `BatchStarted` columns.
    column_totals: BTreeMap<String, usize>,
    /// Column first-submission order; the first entry is the
    /// campaign's baseline design.
    column_order: Vec<String>,
    /// Baseline simulated seconds, set when the baseline column
    /// completes — figure-row ratios normalize against it.
    baseline_sim: Option<f64>,
    /// Completed non-baseline columns waiting for the baseline:
    /// `(design, jobs, sim_seconds)` in completion order.
    pending_rows: Vec<(String, usize, f64)>,
}

/// A permanent per-design figure row: the column's simulated time and,
/// when the baseline column has completed, the ratio against it — the
/// live equivalent of one bar in the paper's per-design figures.
fn figure_row(design: &str, jobs: usize, sim: f64, baseline: Option<(&str, f64)>) -> String {
    let rel = match baseline {
        Some((base, base_sim)) if base_sim > 0.0 => {
            format!(" · {:.2}x {base}", sim / base_sim)
        }
        _ => String::new(),
    };
    format!(
        "[dash] fig {design}: {jobs} jobs, {:.2} sim-ms{rel}\n",
        sim * 1e3
    )
}

/// Renders campaign progress as an in-place, multi-line TTY dashboard.
pub struct DashboardSink {
    clock: Arc<dyn Clock>,
    out: Mutex<(Box<dyn Write + Send>, DashState)>,
}

impl DashboardSink {
    /// A dashboard on the process's stderr, timed by `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        DashboardSink::with_writer(clock, Box::new(std::io::stderr()))
    }

    /// A dashboard on an arbitrary writer (tests inject a buffer).
    pub fn with_writer(clock: Arc<dyn Clock>, out: Box<dyn Write + Send>) -> Self {
        DashboardSink {
            clock,
            out: Mutex::new((out, DashState::default())),
        }
    }

    /// The live block's lines for the current state.
    fn lines(state: &DashState, now_us: u64) -> Vec<String> {
        let elapsed_s = state
            .started_us
            .map(|t0| now_us.saturating_sub(t0) as f64 / 1e6)
            .unwrap_or(0.0);
        let rate = if elapsed_s > 0.0 {
            state.done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta = if rate > 0.0 && state.total > state.done {
            format!("{:.0}s", (state.total - state.done) as f64 / rate)
        } else {
            "--".to_string()
        };
        let hit_pct = if state.done > 0 {
            state.cache_hits as f64 * 100.0 / state.done as f64
        } else {
            0.0
        };
        let mut lines = vec![format!(
            "[dash] {}/{} jobs · {:.0}% cached · {:.1} jobs/s · ETA {}",
            state.done, state.total, hit_pct, rate, eta
        )];
        for (design, (count, _sim)) in &state.per_design {
            match state.column_totals.get(design) {
                Some(total) => lines.push(format!("[dash]   {design}: {count}/{total}")),
                None => lines.push(format!("[dash]   {design}: {count}")),
            }
        }
        lines
    }

    /// Writes permanent lines below the live block: settle the block,
    /// emit the lines, and let the next redraw start a fresh block.
    fn emit_permanent(out: &mut (Box<dyn Write + Send>, DashState), now_us: u64, text: &str) {
        DashboardSink::redraw(out, now_us, true);
        let (writer, state) = out;
        state.drawn_lines = 0;
        let _ = writer.write_all(text.as_bytes());
        let _ = writer.flush();
    }

    /// Redraws the live block in place: move the cursor up over the
    /// previous block, then rewrite each line (clearing its tail).
    fn redraw(out: &mut (Box<dyn Write + Send>, DashState), now_us: u64, force: bool) {
        let (writer, state) = out;
        if !force && now_us.saturating_sub(state.last_draw_us) < REDRAW_INTERVAL_US {
            return;
        }
        state.last_draw_us = now_us;
        let lines = DashboardSink::lines(state, now_us);
        let mut block = String::new();
        if state.drawn_lines > 0 {
            block.push_str(&format!("\x1b[{}A", state.drawn_lines));
        }
        for line in &lines {
            block.push_str("\x1b[2K");
            block.push_str(line);
            block.push('\n');
        }
        state.drawn_lines = lines.len();
        // Best-effort, like every progress writer: never kill a job
        // over a closed terminal.
        let _ = writer.write_all(block.as_bytes());
        let _ = writer.flush();
    }
}

impl ProgressSink for DashboardSink {
    fn event(&self, event: &ProgressEvent) {
        let now_us = self.clock.now_us();
        let mut out = self.out.lock().expect("dashboard lock");
        match event {
            ProgressEvent::BatchStarted { total, columns, .. } => {
                let state = &mut out.1;
                state.total += total;
                state.started_us.get_or_insert(now_us);
                for (design, count) in columns {
                    *state.column_totals.entry(design.clone()).or_insert(0) += count;
                    if !state.column_order.contains(design) {
                        state.column_order.push(design.clone());
                    }
                }
                DashboardSink::redraw(&mut out, now_us, true);
            }
            ProgressEvent::JobFinished {
                label,
                provenance,
                sim_seconds,
                ..
            } => {
                let state = &mut out.1;
                state.done += 1;
                if !matches!(provenance, Provenance::Executed) {
                    state.cache_hits += 1;
                }
                let design = design_of(label).to_string();
                let entry = state.per_design.entry(design.clone()).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += sim_seconds;
                let (jobs, sim) = *entry;
                // When a whole campaign column completes, stream its
                // figure row out as a permanent line. Columns that
                // finish before the baseline queue until its sim-time
                // is known, so every row carries a ratio.
                let column_done = state
                    .column_totals
                    .get(&design)
                    .is_some_and(|&t| t > 0 && jobs == t);
                let mut rows = String::new();
                if column_done {
                    let is_baseline =
                        state.column_order.first().map(String::as_str) == Some(design.as_str());
                    if is_baseline {
                        state.baseline_sim = Some(sim);
                    }
                    match (state.column_order.first(), state.baseline_sim) {
                        (Some(base), Some(base_sim)) => {
                            let base = base.clone();
                            rows.push_str(&figure_row(&design, jobs, sim, Some((&base, base_sim))));
                            for (d, j, s) in std::mem::take(&mut state.pending_rows) {
                                rows.push_str(&figure_row(&d, j, s, Some((&base, base_sim))));
                            }
                        }
                        _ => state.pending_rows.push((design, jobs, sim)),
                    }
                }
                if rows.is_empty() {
                    DashboardSink::redraw(&mut out, now_us, false);
                } else {
                    DashboardSink::emit_permanent(&mut out, now_us, &rows);
                }
            }
            ProgressEvent::BatchFinished { stats } => {
                // Settle the block, then leave a permanent summary
                // line below it; the next batch draws a fresh block.
                let summary = format!(
                    "[dash] batch done: {} jobs, {} executed, {} cached, {:.2} s wall\n",
                    stats.jobs,
                    stats.executed,
                    stats.cache_hits,
                    stats.wall.as_secs_f64(),
                );
                DashboardSink::emit_permanent(&mut out, now_us, &summary);
            }
        }
    }

    /// Forces a final redraw so the last rate-limited frame never
    /// leaves the TTY showing stale mid-run state: a burst of
    /// completions inside one redraw interval would otherwise end the
    /// campaign with the block frozen at an earlier count.
    fn flush(&self) {
        let now_us = self.clock.now_us();
        let mut out = self.out.lock().expect("dashboard lock");
        if out.1.started_us.is_some() {
            DashboardSink::redraw(&mut out, now_us, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use hetsim_obs::ManualClock;

    use crate::progress::RunnerStats;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8")
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn finished(index: usize, label: &str, provenance: Provenance) -> ProgressEvent {
        finished_sim(index, label, provenance, 0.0)
    }

    fn finished_sim(
        index: usize,
        label: &str,
        provenance: Provenance,
        sim_seconds: f64,
    ) -> ProgressEvent {
        ProgressEvent::JobFinished {
            index,
            label: label.to_string(),
            provenance,
            done: index + 1,
            total: 4,
            sim_seconds,
        }
    }

    #[test]
    fn dashboard_tracks_designs_hits_and_eta() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let sink = DashboardSink::with_writer(clock.clone(), Box::new(buf.clone()));
        sink.event(&ProgressEvent::BatchStarted {
            total: 4,
            workers: 2,
            columns: Vec::new(),
        });
        clock.advance(1_000_000); // 1 s per job => 1.0 jobs/s
        sink.event(&finished(0, "cpu/lu/AdvHetx4", Provenance::Executed));
        clock.advance(1_000_000);
        sink.event(&finished(1, "cpu/lu/CmosHPx4", Provenance::DiskCache));
        let text = buf.text();
        assert!(text.contains("2/4 jobs"), "{text}");
        assert!(text.contains("50% cached"), "{text}");
        assert!(text.contains("1.0 jobs/s"), "{text}");
        assert!(text.contains("ETA 2s"), "{text}");
        assert!(text.contains("AdvHet: 1"), "{text}");
        assert!(text.contains("CmosHP: 1"), "{text}");
        assert!(text.contains("\x1b[2K"), "redraws must clear lines");

        sink.event(&ProgressEvent::BatchFinished {
            stats: RunnerStats {
                jobs: 4,
                executed: 1,
                cache_hits: 3,
                wall: Duration::from_secs(2),
                ..RunnerStats::default()
            },
        });
        let text = buf.text();
        assert!(text.contains("batch done: 4 jobs"), "{text}");
    }

    #[test]
    fn figure_rows_stream_as_columns_complete_and_wait_for_the_baseline() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let sink = DashboardSink::with_writer(clock.clone(), Box::new(buf.clone()));
        sink.event(&ProgressEvent::BatchStarted {
            total: 4,
            workers: 2,
            columns: vec![("BaseCmosHP".into(), 2), ("AdvHet".into(), 2)],
        });
        // The non-baseline column completes first: its row must wait
        // for the baseline so it can carry a ratio.
        sink.event(&finished_sim(
            0,
            "cpu/lu/AdvHetx4",
            Provenance::Executed,
            0.25,
        ));
        sink.event(&finished_sim(
            1,
            "cpu/fft/AdvHetx4",
            Provenance::Executed,
            0.25,
        ));
        assert!(!buf.text().contains("fig AdvHet"), "{}", buf.text());
        // Baseline completes: its own row, then the queued one.
        sink.event(&finished_sim(
            2,
            "cpu/lu/BaseCmosHPx4",
            Provenance::Executed,
            0.5,
        ));
        sink.event(&finished_sim(
            3,
            "cpu/fft/BaseCmosHPx4",
            Provenance::DiskCache,
            0.5,
        ));
        let text = buf.text();
        let base_at = text
            .find("fig BaseCmosHP: 2 jobs, 1000.00 sim-ms · 1.00x BaseCmosHP")
            .unwrap_or_else(|| panic!("no baseline row in {text}"));
        let adv_at = text
            .find("fig AdvHet: 2 jobs, 500.00 sim-ms · 0.50x BaseCmosHP")
            .unwrap_or_else(|| panic!("no AdvHet row in {text}"));
        assert!(base_at < adv_at, "baseline row flushes first: {text}");
        // Rows are permanent: the live block shows per-column progress.
        assert!(text.contains("AdvHet: 2/2"), "{text}");
    }

    #[test]
    fn redraws_are_rate_limited_by_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let sink = DashboardSink::with_writer(clock.clone(), Box::new(buf.clone()));
        sink.event(&ProgressEvent::BatchStarted {
            total: 100,
            workers: 2,
            columns: Vec::new(),
        });
        let drawn_after_start = buf.text().matches("[dash] ").count();
        // A burst of completions inside one redraw interval coalesces
        // into zero additional draws...
        for i in 0..50 {
            clock.advance(10); // far below REDRAW_INTERVAL_US
            sink.event(&finished(i, "gpu/matmul/HetGPU", Provenance::DiskCache));
        }
        assert_eq!(buf.text().matches("[dash] ").count(), drawn_after_start);
        // ...and the next completion after the interval draws once.
        clock.advance(REDRAW_INTERVAL_US);
        sink.event(&finished(50, "gpu/matmul/HetGPU", Provenance::DiskCache));
        let text = buf.text();
        assert!(text.contains("51/100 jobs"), "{text}");
    }

    #[test]
    fn final_flush_settles_a_rate_limited_block() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let sink = DashboardSink::with_writer(clock.clone(), Box::new(buf.clone()));
        sink.event(&ProgressEvent::BatchStarted {
            total: 4,
            workers: 2,
            columns: Vec::new(),
        });
        // Every completion lands inside the redraw interval, so the
        // block still shows the count from `BatchStarted`...
        for i in 0..4 {
            clock.advance(10);
            sink.event(&finished(i, "gpu/matmul/HetGPU", Provenance::DiskCache));
        }
        assert!(!buf.text().contains("4/4 jobs"), "{}", buf.text());
        // ...until the campaign driver flushes on completion.
        sink.flush();
        assert!(buf.text().contains("4/4 jobs"), "{}", buf.text());
    }

    #[test]
    fn flush_before_any_batch_draws_nothing() {
        let clock = Arc::new(ManualClock::new());
        let buf = SharedBuf::default();
        let sink = DashboardSink::with_writer(clock, Box::new(buf.clone()));
        sink.flush();
        assert!(buf.text().is_empty(), "{}", buf.text());
    }
}
