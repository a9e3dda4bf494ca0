//! The three closed-loop workloads. Each is seeded, single-threaded and
//! drives the public `Runtime`/`Session` API on the paper's default link
//! and cost model; the benchmark generates the op schedule and the
//! runtime only ever sees the ops.

use mage_core::Runtime;

use crate::probes::Profile;
use crate::record::Recorder;

pub mod call_steady;
pub mod durable_faults;
pub mod migrate_mix;

/// A benchmark workload.
pub trait Workload: Sized {
    /// Ops per measured repetition.
    const REP_OPS: u64;

    /// The payloads the workload puts on its call path (for the layer
    /// floor probes).
    const PROFILE: Profile;

    /// Builds the runtime, deploys the class, creates the objects and
    /// warms up. Everything after this is measured.
    ///
    /// # Errors
    ///
    /// Any failure of the set-up operations.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Drives the closed loop until `ops` more ops have completed.
    ///
    /// # Errors
    ///
    /// A world that goes idle with ops still in flight.
    fn drive(&mut self, ops: u64, rec: &mut Recorder) -> Result<(), String>;

    /// Completes every op still in flight (recording it), lets the world
    /// go idle and checks the outputs. Returns a one-line summary of what
    /// was checked.
    ///
    /// # Errors
    ///
    /// The first output check that failed.
    fn finish(&mut self, rec: &mut Recorder) -> Result<String, String>;

    /// The runtime under test.
    fn runtime(&mut self) -> &mut Runtime;

    /// Digest of the op schedule drawn so far (seed-determined).
    fn schedule_digest(&self) -> u64;
}

/// An order-sensitive FNV-1a fold over the drawn schedule.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
