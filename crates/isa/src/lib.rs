//! # inca-isa — the INCA instruction set
//!
//! This crate defines the instruction-set architecture used throughout the
//! INCA reproduction:
//!
//! * the **original ISA** of an instruction-driven CNN accelerator in the
//!   Angel-Eye family: [`Opcode::LoadW`], [`Opcode::LoadD`],
//!   [`Opcode::CalcI`], [`Opcode::CalcF`] and [`Opcode::Save`]
//!   (paper Table I);
//! * the **virtual-instruction extension (VI-ISA)**: [`Opcode::VirSave`],
//!   [`Opcode::VirLoadD`] and [`Opcode::VirLoadW`], which are skipped during
//!   normal execution and materialised by the Instruction Arrangement Unit
//!   (IAU) only when an interrupt lands on their interrupt point;
//! * the [`Program`] container (instruction stream, per-layer execution
//!   metadata, CalcBlob segmentation, interrupt points and memory map);
//! * a fixed-width binary encoding ([`encode`]) reproducing the paper's
//!   `instruction.bin` artefact.
//!
//! The ISA is deliberately *semantic*: every instruction carries the tile
//! geometry it touches, so both a cycle-level timing simulator and a
//! bit-exact functional simulator can execute the very same stream.
//!
//! ## Example
//!
//! ```
//! use inca_isa::{Instr, Opcode, Tile, DdrRange};
//!
//! // A final-accumulation CALC over an 8-row, 16-output-channel tile that
//! // consumes input channels 32..48 of layer 3.
//! let calc = Instr::calc(Opcode::CalcF, 3, 7, Tile::new(0, 8, 0, 16, 32, 16));
//! assert!(calc.op.is_calc());
//! assert!(!calc.op.is_virtual());
//! let bin = calc.encode();
//! assert_eq!(Instr::decode(&bin).unwrap(), calc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod error;
mod instr;
mod layer;
mod program;

pub mod container;
pub mod encode;
pub mod plan;

pub use arch::{ArchSpec, Parallelism};
pub use error::IsaError;
pub use instr::{DdrRange, Instr, Opcode, Tile, RECORD_BYTES};
pub use layer::{LayerKind, LayerMeta, PoolKind, Shape3};
pub use plan::{
    compile_program, CompiledProgram, Cut, DeoptReason, Edge, LayerPlan, LayerTier, StoreSpan,
};
pub use program::{BlobRange, InterruptPoint, MemoryMap, Program, ProgramBuilder, ProgramStats};

/// Number of hardware task slots managed by the IAU (paper §IV-D: "supports
/// four tasks with different priorities").
pub const TASK_SLOTS: usize = 4;

/// A hardware task slot. Slot 0 has the highest priority and is never
/// preempted; slot 3 has the lowest priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskSlot(u8);

impl TaskSlot {
    /// Creates a task slot.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidSlot`] when `index >= TASK_SLOTS`.
    pub fn new(index: u8) -> Result<Self, IsaError> {
        if usize::from(index) < TASK_SLOTS {
            Ok(Self(index))
        } else {
            Err(IsaError::InvalidSlot(index))
        }
    }

    /// The highest-priority, non-preemptible slot.
    pub const HIGHEST: TaskSlot = TaskSlot(0);
    /// The lowest-priority slot.
    pub const LOWEST: TaskSlot = TaskSlot((TASK_SLOTS - 1) as u8);

    /// Slot index (0 = highest priority).
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Returns `true` when `self` preempts `other` (strictly higher
    /// priority, i.e. lower index).
    #[must_use]
    pub fn preempts(self, other: TaskSlot) -> bool {
        self.0 < other.0
    }

    /// Iterates over all slots from highest to lowest priority.
    pub fn all() -> impl Iterator<Item = TaskSlot> {
        (0..TASK_SLOTS as u8).map(TaskSlot)
    }
}

impl std::fmt::Display for TaskSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

impl TryFrom<u8> for TaskSlot {
    type Error = IsaError;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        TaskSlot::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ordering_matches_priority() {
        let s0 = TaskSlot::new(0).unwrap();
        let s3 = TaskSlot::new(3).unwrap();
        assert!(s0.preempts(s3));
        assert!(!s3.preempts(s0));
        assert!(!s0.preempts(s0));
        assert_eq!(s0, TaskSlot::HIGHEST);
        assert_eq!(s3, TaskSlot::LOWEST);
    }

    #[test]
    fn slot_rejects_out_of_range() {
        assert!(TaskSlot::new(4).is_err());
        assert!(TaskSlot::new(255).is_err());
        assert_eq!(TaskSlot::all().count(), TASK_SLOTS);
    }

    #[test]
    fn slot_display_is_nonempty() {
        assert_eq!(TaskSlot::HIGHEST.to_string(), "slot0");
    }
}
