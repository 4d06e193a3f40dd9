//! Tournament branch predictor (paper Table III): 2-level local + gshare
//! with a per-site chooser, a 4-way 2K-entry BTB and a 32-entry RAS.
//!
//! The predictor is defined in `hetsim_trace::predictor`, next to the
//! trace store that walks it once per stream and config: the core trains
//! it at dispatch in program order, so its outcomes depend only on the
//! stream prefix and the [`PredictorConfig`].

pub use hetsim_trace::predictor::{Prediction, PredictorConfig, TournamentPredictor};
