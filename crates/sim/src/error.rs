//! Typed errors for the simulator's hot paths.
//!
//! The detailed PE pipeline and the config/DRAM validation paths report
//! malformed inputs through [`SimError`] instead of panicking, per the
//! `no-panic-in-hot-path` lint rule: a bad fiber coordinate or an
//! inconsistent configuration is a caller bug the simulator must surface
//! as data, not abort a long batch run on.

use std::fmt;

/// A simulation input the model cannot process.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A compressed-fiber coordinate lies outside the PE geometry.
    FiberOutOfRange {
        /// Which coordinate was out of range (`"weight row"`, …).
        what: &'static str,
        /// The offending value.
        got: usize,
        /// The exclusive upper bound the geometry allows.
        limit: usize,
    },
    /// A configuration field (or combination) is invalid.
    InvalidConfig {
        /// The offending field or relation.
        field: &'static str,
        /// Why it is rejected.
        reason: &'static str,
    },
    /// A suite worker thread panicked while simulating a model.
    WorkerPanicked {
        /// The model the panicking worker was simulating.
        model: String,
    },
    /// An IR node reached workload synthesis without a measured
    /// [`cscnn_ir::SparsityAnnotation`].
    MissingSparsity {
        /// The offending layer's name.
        layer: String,
    },
    /// An IR node's [`cscnn_ir::SparsityAnnotation`] carries a density
    /// that is NaN or outside `[0, 1]`.
    DensityOutOfRange {
        /// The offending layer's name.
        layer: String,
        /// Which density (`"weight_density"` or `"activation_density"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A conv node's kernel has more positions (`R·S`) than the
    /// workload's `u16` per-slice non-zero counts can hold.
    KernelTooLarge {
        /// The offending layer's name.
        layer: String,
        /// Its kernel positions `R·S`.
        positions: usize,
    },
    /// A weight-bearing IR node's geometry cannot describe a layer: a zero
    /// extent, `groups` not dividing the channels, or a kernel larger than
    /// its padded input (see [`cscnn_ir::ConvGeom::check`]).
    BadGeometry {
        /// The offending layer's name.
        layer: String,
        /// The offending field (`"groups"`, `"r"`, `"inputs"`, …).
        field: &'static str,
        /// Why it is rejected.
        reason: String,
    },
    /// An IR reached the simulator with a malformed graph topology
    /// (dangling or backward edge, cycle, bad join arity).
    BadTopology {
        /// The model's name.
        model: String,
        /// The underlying diagnosis, naming the offending node or edge.
        error: cscnn_ir::TopologyError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::FiberOutOfRange { what, got, limit } => {
                write!(f, "{what} {got} out of range (limit {limit})")
            }
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field} {reason}")
            }
            SimError::WorkerPanicked { model } => {
                write!(f, "simulation worker for model `{model}` panicked")
            }
            SimError::MissingSparsity { layer } => {
                write!(
                    f,
                    "layer `{layer}` has no sparsity annotation; annotate the IR \
                     before simulating"
                )
            }
            SimError::DensityOutOfRange {
                layer,
                field,
                value,
            } => {
                write!(f, "layer `{layer}` has {field} {value} outside [0, 1]")
            }
            SimError::KernelTooLarge { layer, positions } => {
                write!(
                    f,
                    "layer `{layer}` has {positions} kernel positions; at most {} \
                     are supported",
                    u16::MAX
                )
            }
            SimError::BadGeometry {
                layer,
                field,
                reason,
            } => {
                write!(f, "layer `{layer}` has invalid geometry: {field} {reason}")
            }
            SimError::BadTopology { model, error } => {
                write!(f, "model `{model}` has an invalid graph topology: {error}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = SimError::FiberOutOfRange {
            what: "weight row",
            got: 9,
            limit: 3,
        };
        assert_eq!(e.to_string(), "weight row 9 out of range (limit 3)");
        let e = SimError::InvalidConfig {
            field: "num_pes",
            reason: "must be non-zero",
        };
        assert!(e.to_string().contains("num_pes"));
    }
}
