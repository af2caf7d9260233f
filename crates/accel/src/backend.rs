//! Execution backends: the engine drives one instruction stream through a
//! [`Backend`], which gives the instructions *semantics* — either none at
//! all (pure timing) or bit-exact int8 arithmetic ([`crate::FuncBackend`]).

use inca_isa::{Instr, Program, TaskSlot};

/// Errors raised while simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No program loaded in the requested slot.
    EmptySlot(TaskSlot),
    /// A CALC consumed data the on-chip data buffer does not hold
    /// (indicates a missing `LOAD_D`/`VIR_LOAD_D` — i.e. a compiler or IAU
    /// bug).
    MissingData {
        /// Layer id.
        layer: u16,
        /// (Buffer-virtual) channel index.
        channel: u32,
        /// Input row index.
        row: u32,
    },
    /// A CALC consumed weights the weight buffer does not hold.
    MissingWeights {
        /// Layer id.
        layer: u16,
        /// Output channel.
        oc: u32,
        /// Input channel.
        ic: u32,
    },
    /// A SAVE read an output blob that is absent or not finalised.
    MissingOutput {
        /// Layer id.
        layer: u16,
        /// Output channel.
        channel: u32,
        /// Output row.
        row: u32,
    },
    /// A DDR access fell outside the task's image.
    AddressOutOfRange {
        /// Slot.
        slot: TaskSlot,
        /// Task-relative address.
        addr: u64,
        /// Access length.
        len: u64,
        /// Image capacity.
        capacity: u64,
    },
    /// No DDR image installed for a functional slot.
    NoImage(TaskSlot),
    /// CPU-like restore without a prior snapshot.
    NoSnapshot(TaskSlot),
    /// Engine misuse (message explains).
    Engine(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptySlot(s) => write!(f, "no program loaded in {s}"),
            SimError::MissingData { layer, channel, row } => {
                write!(f, "data buffer miss: layer {layer}, channel {channel}, row {row}")
            }
            SimError::MissingWeights { layer, oc, ic } => {
                write!(f, "weight buffer miss: layer {layer}, oc {oc}, ic {ic}")
            }
            SimError::MissingOutput { layer, channel, row } => {
                write!(f, "output buffer miss: layer {layer}, channel {channel}, row {row}")
            }
            SimError::AddressOutOfRange { slot, addr, len, capacity } => {
                write!(f, "{slot}: DDR access {addr:#x}+{len} outside image of {capacity} bytes")
            }
            SimError::NoImage(s) => write!(f, "no DDR image installed for {s}"),
            SimError::NoSnapshot(s) => write!(f, "no snapshot to restore for {s}"),
            SimError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Gives semantics to instructions executed by the [`crate::Engine`].
///
/// The engine guarantees:
/// * `execute` is only called for the slot that currently owns the
///   datapath (after `on_switch`);
/// * `SAVE` instructions arrive already *patched* (channels flushed by an
///   earlier `VIR_SAVE` removed);
/// * virtual instructions arrive only when materialised by an interrupt
///   (`VIR_SAVE` during backup, `VIR_LOAD_*` during resume).
pub trait Backend {
    /// Executes one instruction for `slot`.
    ///
    /// # Errors
    ///
    /// Implementations return [`SimError`] when the instruction's
    /// preconditions do not hold (buffer misses, bad addresses).
    fn execute(&mut self, slot: TaskSlot, program: &Program, instr: &Instr)
        -> Result<(), SimError>;

    /// The datapath is handed to `slot`; volatile on-chip state of any
    /// previous owner is lost.
    fn on_switch(&mut self, slot: TaskSlot);

    /// A (possibly different) program was loaded into `slot`. Stateful
    /// backends must invalidate any on-chip buffers or snapshots staged
    /// for the slot's previous program: ownership does not change on a
    /// same-slot reload, so [`Backend::on_switch`] alone cannot catch
    /// it. The default (timing-only) implementation is a no-op.
    fn on_load(&mut self, slot: TaskSlot) {
        let _ = slot;
    }

    /// CPU-like interrupt: capture the whole on-chip state for `slot`.
    fn snapshot(&mut self, slot: TaskSlot);

    /// CPU-like resume: restore the snapshot taken for `slot`.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSnapshot`] when no snapshot exists.
    fn restore(&mut self, slot: TaskSlot) -> Result<(), SimError>;

    /// A slot-virtualizing scheduler bound logical context `ctx` to `slot`
    /// (the slot's program is being time-shared between more tasks than
    /// there are slots). Stateful backends swap the slot's DDR image for
    /// the context's; the default (timing-only) implementation is a no-op.
    ///
    /// # Errors
    ///
    /// Implementations may reject a rebind while the slot's state cannot
    /// be swapped; the default never fails.
    fn rebind(&mut self, slot: TaskSlot, ctx: u64) -> Result<(), SimError> {
        let _ = (slot, ctx);
        Ok(())
    }

    /// How much of a job the engine may hand to
    /// [`Backend::execute_span`] in one call. The engine only attempts a
    /// span commit when this is not [`SpanSupport::None`].
    fn supports_spans(&self) -> SpanSupport {
        SpanSupport::None
    }

    /// Executes the pc span `span` of `program` in one call — one whole
    /// layer under [`SpanSupport::Layer`], any run of instructions under
    /// [`SpanSupport::Any`] — applying the job's input/output offsets
    /// itself (the span's instructions arrive *unpatched*).
    ///
    /// Returns `Ok(true)` when the span was executed with effects
    /// bit-identical to stepping each original instruction, or `Ok(false)`
    /// to decline (the engine then falls back to stepping). A declining
    /// implementation must leave all state untouched.
    ///
    /// # Errors
    ///
    /// Implementations should prefer declining over failing; errors are
    /// reserved for conditions stepping would also raise immediately.
    fn execute_span(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        span: std::ops::Range<usize>,
        input_offset: u64,
        output_offset: u64,
    ) -> Result<bool, SimError> {
        let _ = (slot, program, span, input_offset, output_offset);
        Ok(false)
    }
}

/// The extent of a span a [`Backend`] accepts through
/// [`Backend::execute_span`] — the backend's answer, never an option: it
/// follows from what its instructions mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSupport {
    /// None: every instruction goes through [`Backend::execute`].
    None,
    /// The pc range of one whole layer, from the layer's first instruction
    /// (a trace-compiled layer program).
    Layer,
    /// Any run of instructions: they have no data semantics, so the clock
    /// is all a span moves.
    Any,
}

/// Forwards every [`Backend`] method to `B` but reports no span
/// capability, so `Engine<Stepped<B>>` advances one instruction at a time
/// — the per-instruction oracle the span commit is differentially tested
/// against (`tests/span_differential.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stepped<B>(pub B);

impl<B: Backend> Backend for Stepped<B> {
    fn execute(&mut self, slot: TaskSlot, program: &Program, i: &Instr) -> Result<(), SimError> {
        self.0.execute(slot, program, i)
    }

    fn on_switch(&mut self, slot: TaskSlot) {
        self.0.on_switch(slot);
    }

    fn on_load(&mut self, slot: TaskSlot) {
        self.0.on_load(slot);
    }

    fn snapshot(&mut self, slot: TaskSlot) {
        self.0.snapshot(slot);
    }

    fn restore(&mut self, slot: TaskSlot) -> Result<(), SimError> {
        self.0.restore(slot)
    }

    fn rebind(&mut self, slot: TaskSlot, ctx: u64) -> Result<(), SimError> {
        self.0.rebind(slot, ctx)
    }
}

/// The timing-only backend: instructions have cost but no data semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingBackend {
    _private: (),
}

impl TimingBackend {
    /// Creates a timing backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for TimingBackend {
    fn execute(
        &mut self,
        _slot: TaskSlot,
        _program: &Program,
        _instr: &Instr,
    ) -> Result<(), SimError> {
        Ok(())
    }

    fn on_switch(&mut self, _slot: TaskSlot) {}

    fn snapshot(&mut self, _slot: TaskSlot) {}

    fn restore(&mut self, _slot: TaskSlot) -> Result<(), SimError> {
        Ok(())
    }

    fn supports_spans(&self) -> SpanSupport {
        SpanSupport::Any
    }

    fn execute_span(
        &mut self,
        _slot: TaskSlot,
        _program: &Program,
        _span: std::ops::Range<usize>,
        _input_offset: u64,
        _output_offset: u64,
    ) -> Result<bool, SimError> {
        Ok(true)
    }
}
