//! The crate-wide error type.
//!
//! Public API paths return `Result<_, VfpgaError>` instead of panicking:
//! misconfiguration (bad partition widths, impossible overlays, empty
//! programs) and runtime failures (scheduler deadlock) surface as typed
//! errors the caller can handle. Internal invariants — states the code
//! itself must make unreachable — stay as `debug_assert!`.

use crate::syscall::OpenError;

/// Everything the vfpga public API can refuse to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfpgaError {
    /// `fpga_open` rejected the circuit (size or pins).
    Open(OpenError),
    /// A task program was built with no operations.
    EmptyProgram,
    /// I/O multiplexing over zero physical pins.
    ZeroPins,
    /// Fixed partition widths don't tile the device.
    BadPartitionWidths {
        /// Sum of the requested widths.
        sum: u32,
        /// Device columns.
        device: u32,
    },
    /// A fixed partition width of zero.
    ZeroWidthPartition,
    /// Overlay common circuits exceed the device width.
    CommonTooWide {
        /// Columns the common circuits need.
        common: u32,
        /// Device columns.
        device: u32,
    },
    /// No room for even one overlay slot after the common region.
    NoOverlaySlot,
    /// `run_traced` called without enabling the trace.
    TraceDisabled,
    /// Checkpointing requested on a manager whose state cannot be
    /// snapshotted (its `snapshot()` returns `None`).
    CheckpointUnsupported {
        /// Name of the component that refused.
        component: &'static str,
    },
    /// A checkpoint image cannot be restored: it was captured from a
    /// differently built system (task count, fault injector or admission
    /// presence), or the system has no checkpointing enabled.
    CheckpointCorrupt {
        /// What went wrong.
        reason: String,
    },
    /// The run ended with a task neither completed nor failed: the
    /// manager/scheduler combination deadlocked.
    Deadlock {
        /// Name of a task left stuck.
        task: String,
    },
    /// An admission policy with out-of-range parameters (zero quota,
    /// watchdog slack below 1, degradation watermark or hysteresis mark
    /// outside `[0, 1]`, an inverted hysteresis pair, or a
    /// schedulability margin below 1).
    BadAdmissionPolicy {
        /// What is out of range.
        reason: String,
    },
    /// A fleet configuration that cannot run (zero devices, zero hosting
    /// capacity, or device faults enabled without a journaled checkpoint
    /// config to fail over from).
    BadFleetConfig {
        /// What is out of range.
        reason: String,
    },
    /// A per-device error surfaced through the fleet. Carries the device
    /// it happened on, so a multi-device failure is diagnosable from the
    /// error alone; single-device errors keep their original formatting.
    DeviceFailure {
        /// The device the inner error happened on.
        device: crate::fleet::DeviceId,
        /// What went wrong there.
        source: Box<VfpgaError>,
    },
}

impl std::fmt::Display for VfpgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfpgaError::Open(e) => write!(f, "fpga_open refused: {e}"),
            VfpgaError::EmptyProgram => write!(f, "task program has no operations"),
            VfpgaError::ZeroPins => write!(f, "cannot multiplex over zero physical pins"),
            VfpgaError::BadPartitionWidths { sum, device } => write!(
                f,
                "fixed partition widths sum to {sum}, device has {device} columns"
            ),
            VfpgaError::ZeroWidthPartition => write!(f, "zero-width partition"),
            VfpgaError::CommonTooWide { common, device } => write!(
                f,
                "common circuits need {common} columns, device has {device}"
            ),
            VfpgaError::NoOverlaySlot => {
                write!(f, "no room for any overlay slot beside the common region")
            }
            VfpgaError::TraceDisabled => {
                write!(f, "run_traced requires with_trace() first")
            }
            VfpgaError::CheckpointUnsupported { component } => {
                write!(f, "'{component}' does not support state snapshots")
            }
            VfpgaError::CheckpointCorrupt { reason } => {
                write!(f, "checkpoint image corrupt: {reason}")
            }
            VfpgaError::Deadlock { task } => {
                write!(f, "task '{task}' neither completed nor failed: deadlock")
            }
            VfpgaError::BadAdmissionPolicy { reason } => {
                write!(f, "admission policy invalid: {reason}")
            }
            VfpgaError::BadFleetConfig { reason } => {
                write!(f, "fleet config invalid: {reason}")
            }
            VfpgaError::DeviceFailure { device, source } => {
                write!(f, "{device}: {source}")
            }
        }
    }
}

impl std::error::Error for VfpgaError {}

impl From<OpenError> for VfpgaError {
    fn from(e: OpenError) -> Self {
        VfpgaError::Open(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VfpgaError::BadPartitionWidths {
            sum: 12,
            device: 20,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("20"));
        let d = VfpgaError::Deadlock { task: "t3".into() };
        assert!(d.to_string().contains("t3"));
        let a = VfpgaError::BadAdmissionPolicy {
            reason: "max_in_flight must be at least 1".into(),
        };
        assert!(a.to_string().contains("max_in_flight"));
    }

    #[test]
    fn open_error_converts() {
        let e: VfpgaError = OpenError::TooManyPins {
            needed: 9,
            available: 4,
        }
        .into();
        assert!(matches!(e, VfpgaError::Open(_)));
    }
}
