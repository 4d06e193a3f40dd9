//! Cache hierarchy and DRAM substrate for the HetCore reproduction.
//!
//! Models the memory system of the paper's Table III: private 32 KB IL1 and
//! DL1, private 256 KB L2, a 2 MB L3 slice per core, and 50 ns round-trip
//! DRAM. Latencies are configuration
//! properties (CMOS vs. TFET implementations differ — e.g. the DL1 round
//! trip is 2 cycles in CMOS and 4 in TFET), so every latency here is a
//! constructor parameter.
//!
//! The crate also implements the paper's *Asymmetric DL1 Cache* (Section
//! IV-C1): one CMOS way (the 4 KB "FastCache", 1-cycle hits) in front of
//! the remaining TFET ways (the "SlowCache", 5-cycle hits), with MRU
//! promotion between them.
//!
//! # Example
//!
//! ```
//! use hetsim_mem::cache::{Cache, CacheConfig};
//!
//! let mut dl1 = Cache::new(CacheConfig::new(32 * 1024, 8, 64, 2));
//! assert!(!dl1.access(0x1000, false).hit); // cold miss
//! assert!(dl1.access(0x1000, false).hit); // now resident
//! ```

#![warn(missing_docs)]

pub mod asymmetric;
pub mod cache;
pub mod cacti;
pub mod dram;
pub mod hierarchy;
pub mod stats;

pub use asymmetric::AsymmetricCache;
pub use cache::{Cache, CacheConfig};
pub use hierarchy::{DataCacheKind, Hierarchy, HierarchyConfig};
pub use stats::MemStats;
