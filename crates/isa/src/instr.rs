//! Instruction definitions: opcodes, tile geometry and DDR ranges.

use crate::IsaError;

/// Size in bytes of one encoded instruction record (see [`crate::encode`]).
pub const RECORD_BYTES: usize = 40;

/// Opcodes of the VI-ISA.
///
/// The first five are the *original* ISA of an Angel-Eye-class
/// instruction-driven accelerator (paper Table I). The `Vir*` opcodes are
/// the virtual-instruction extension: they are present in the compiled
/// stream but are skipped and discarded by the IAU unless an interrupt
/// lands on their interrupt point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Load weights/bias from DDR to the on-chip weight buffer.
    LoadW = 0x01,
    /// Load input feature-map rows from DDR to the on-chip data buffer.
    LoadD = 0x02,
    /// Convolve *partial* input channels into intermediate accumulators.
    CalcI = 0x03,
    /// Convolve the *last* input-channel group, producing final results for
    /// a group of output channels (closes a CalcBlob).
    CalcF = 0x04,
    /// Save final results from the on-chip output buffer to DDR.
    Save = 0x05,
    /// Virtual SAVE: flushes one already-computed but not-yet-saved
    /// CalcBlob to its final DDR destination when an interrupt is taken.
    VirSave = 0x11,
    /// Virtual LOAD_D: restores the input feature-map rows that later
    /// CalcBlobs of the current tile still rely on.
    VirLoadD = 0x12,
    /// Virtual LOAD_W: restores resident weights (only used by the
    /// weight-reuse loop order, where weights persist across height tiles).
    VirLoadW = 0x13,
}

impl Opcode {
    /// All opcodes, original first.
    pub const ALL: [Opcode; 8] = [
        Opcode::LoadW,
        Opcode::LoadD,
        Opcode::CalcI,
        Opcode::CalcF,
        Opcode::Save,
        Opcode::VirSave,
        Opcode::VirLoadD,
        Opcode::VirLoadW,
    ];

    /// `true` for the virtual-instruction extension opcodes.
    #[must_use]
    pub fn is_virtual(self) -> bool {
        (self as u8) & 0x10 != 0
    }

    /// `true` for `CALC_I` / `CALC_F`.
    #[must_use]
    pub fn is_calc(self) -> bool {
        matches!(self, Opcode::CalcI | Opcode::CalcF)
    }

    /// `true` for any instruction that transfers data over the DDR bus
    /// (loads, saves and all virtual instructions).
    #[must_use]
    pub fn moves_data(self) -> bool {
        !self.is_calc()
    }

    /// `true` for `LOAD_W` / `LOAD_D` (original loads only).
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::LoadW | Opcode::LoadD)
    }

    /// Assembly mnemonic as used in listings.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::LoadW => "LOAD_W",
            Opcode::LoadD => "LOAD_D",
            Opcode::CalcI => "CALC_I",
            Opcode::CalcF => "CALC_F",
            Opcode::Save => "SAVE",
            Opcode::VirSave => "VIR_SAVE",
            Opcode::VirLoadD => "VIR_LOAD_D",
            Opcode::VirLoadW => "VIR_LOAD_W",
        }
    }

    /// Decodes an opcode byte.
    ///
    /// # Errors
    ///
    /// [`IsaError::UnknownOpcode`] for unassigned byte values.
    pub fn from_byte(byte: u8) -> Result<Self, IsaError> {
        Opcode::ALL.into_iter().find(|op| *op as u8 == byte).ok_or(IsaError::UnknownOpcode(byte))
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The tile of a layer an instruction touches.
///
/// Row coordinates are in the *output* feature-map for `CALC_*`, `SAVE` and
/// `VIR_SAVE`, and in the *input* feature-map for `LOAD_D` / `VIR_LOAD_D`.
/// Channel ranges follow the same convention; `ic0`/`ics` give the input
/// channel group consumed by a `CALC_*` or covered by a `LOAD_W`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Tile {
    /// First row covered.
    pub h0: u16,
    /// Number of rows covered.
    pub rows: u16,
    /// First (output or loaded) channel covered.
    pub c0: u16,
    /// Number of channels covered.
    pub chans: u16,
    /// First input channel consumed (CALC / LOAD_W only).
    pub ic0: u16,
    /// Number of input channels consumed (CALC / LOAD_W only).
    pub ics: u16,
}

impl Tile {
    /// Creates a tile covering rows `h0..h0+rows`, channels `c0..c0+chans`
    /// and input channels `ic0..ic0+ics`.
    #[must_use]
    pub fn new(h0: u16, rows: u16, c0: u16, chans: u16, ic0: u16, ics: u16) -> Self {
        Self { h0, rows, c0, chans, ic0, ics }
    }

    /// A tile with only a row range (used by `LOAD_D` for all-channel loads).
    #[must_use]
    pub fn rows_chans(h0: u16, rows: u16, c0: u16, chans: u16) -> Self {
        Self { h0, rows, c0, chans, ic0: 0, ics: 0 }
    }

    /// Row range as `h0..h0+rows`.
    #[must_use]
    pub fn row_range(&self) -> std::ops::Range<u32> {
        u32::from(self.h0)..u32::from(self.h0) + u32::from(self.rows)
    }

    /// Channel range as `c0..c0+chans`.
    #[must_use]
    pub fn chan_range(&self) -> std::ops::Range<u32> {
        u32::from(self.c0)..u32::from(self.c0) + u32::from(self.chans)
    }

    /// Input-channel range as `ic0..ic0+ics`.
    #[must_use]
    pub fn ic_range(&self) -> std::ops::Range<u32> {
        u32::from(self.ic0)..u32::from(self.ic0) + u32::from(self.ics)
    }
}

/// A contiguous-by-convention DDR transfer (task-relative byte address).
///
/// The address is relative to the DDR image backing the owning task's
/// slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DdrRange {
    /// Task-relative byte address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub bytes: u32,
}

impl DdrRange {
    /// Creates a DDR range.
    #[must_use]
    pub fn new(addr: u64, bytes: u32) -> Self {
        Self { addr, bytes }
    }

    /// An empty transfer.
    pub const EMPTY: DdrRange = DdrRange { addr: 0, bytes: 0 };
}

/// One VI-ISA instruction.
///
/// Instructions are *semantic*: besides the fields real hardware would
/// carry (opcode, DDR address/length), they keep the tile geometry so the
/// functional simulator can execute the identical stream the timing
/// simulator schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Layer this instruction belongs to (index into [`crate::Program::layers`]).
    pub layer: u16,
    /// CalcBlob id (monotonic across the program). For `SAVE` this is the id
    /// of the *last* blob the save covers.
    pub blob: u32,
    /// Geometry of the tile touched.
    pub tile: Tile,
    /// DDR transfer for loads/saves/virtual instructions; `EMPTY` for CALC.
    pub ddr: DdrRange,
    /// For `SAVE`: this save's unique id. For `VIR_SAVE`: the id of the
    /// pending `SAVE` whose address/length the IAU must patch after the
    /// interrupt ("SaveID" in paper Fig. IAU).
    pub save_id: u32,
}

impl Instr {
    /// Builds a CALC instruction (`CALC_I` or `CALC_F`).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a CALC opcode.
    #[must_use]
    pub fn calc(op: Opcode, layer: u16, blob: u32, tile: Tile) -> Self {
        assert!(op.is_calc(), "Instr::calc requires CALC_I/CALC_F, got {op}");
        Self { op, layer, blob, tile, ddr: DdrRange::EMPTY, save_id: 0 }
    }

    /// Builds a data-movement instruction (any non-CALC opcode).
    ///
    /// # Panics
    ///
    /// Panics if `op` is a CALC opcode.
    #[must_use]
    pub fn transfer(op: Opcode, layer: u16, blob: u32, tile: Tile, ddr: DdrRange) -> Self {
        assert!(op.moves_data(), "Instr::transfer requires a data-movement opcode, got {op}");
        Self { op, layer, blob, tile, ddr, save_id: 0 }
    }

    /// Attaches a save id (for `SAVE` / `VIR_SAVE`).
    #[must_use]
    pub fn with_save_id(mut self, save_id: u32) -> Self {
        self.save_id = save_id;
        self
    }

    /// Encodes the instruction into its fixed-width binary record.
    #[must_use]
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        crate::encode::encode_instr(self)
    }

    /// Decodes an instruction from a binary record.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown opcodes or truncated buffers.
    pub fn decode(bytes: &[u8]) -> Result<Self, IsaError> {
        crate::encode::decode_instr(bytes)
    }

    /// One-line assembly listing of the instruction.
    #[must_use]
    pub fn listing(&self) -> String {
        let t = &self.tile;
        match self.op {
            Opcode::CalcI | Opcode::CalcF => format!(
                "{:<10} L{:<3} blob {:<5} rows {}..{} oc {}..{} ic {}..{}",
                self.op.mnemonic(),
                self.layer,
                self.blob,
                t.h0,
                t.h0 + t.rows,
                t.c0,
                t.c0 + t.chans,
                t.ic0,
                t.ic0 + t.ics,
            ),
            Opcode::Save | Opcode::VirSave => format!(
                "{:<10} L{:<3} blob {:<5} rows {}..{} oc {}..{} -> ddr {:#x}+{} (save {})",
                self.op.mnemonic(),
                self.layer,
                self.blob,
                t.h0,
                t.h0 + t.rows,
                t.c0,
                t.c0 + t.chans,
                self.ddr.addr,
                self.ddr.bytes,
                self.save_id,
            ),
            _ => format!(
                "{:<10} L{:<3} blob {:<5} rows {}..{} ch {}..{} <- ddr {:#x}+{}",
                self.op.mnemonic(),
                self.layer,
                self.blob,
                t.h0,
                t.h0 + t.rows,
                t.c0,
                t.c0 + t.chans,
                self.ddr.addr,
                self.ddr.bytes,
            ),
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classification() {
        assert!(Opcode::CalcI.is_calc());
        assert!(Opcode::CalcF.is_calc());
        assert!(!Opcode::Save.is_calc());
        assert!(Opcode::VirSave.is_virtual());
        assert!(Opcode::VirLoadD.is_virtual());
        assert!(Opcode::VirLoadW.is_virtual());
        assert!(!Opcode::LoadD.is_virtual());
        assert!(Opcode::LoadW.is_load());
        assert!(!Opcode::VirLoadW.is_load());
        assert!(Opcode::Save.moves_data());
        assert!(!Opcode::CalcF.moves_data());
    }

    #[test]
    fn opcode_bytes_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op as u8).unwrap(), op);
        }
        assert!(Opcode::from_byte(0x00).is_err());
        assert!(Opcode::from_byte(0xff).is_err());
    }

    #[test]
    fn tile_ranges() {
        let t = Tile::new(8, 4, 16, 16, 32, 8);
        assert_eq!(t.row_range(), 8..12);
        assert_eq!(t.chan_range(), 16..32);
        assert_eq!(t.ic_range(), 32..40);
    }

    #[test]
    #[should_panic(expected = "requires CALC_I/CALC_F")]
    fn calc_ctor_rejects_save() {
        let _ = Instr::calc(Opcode::Save, 0, 0, Tile::default());
    }

    #[test]
    #[should_panic(expected = "requires a data-movement opcode")]
    fn transfer_ctor_rejects_calc() {
        let _ = Instr::transfer(Opcode::CalcF, 0, 0, Tile::default(), DdrRange::EMPTY);
    }

    #[test]
    fn listing_mentions_mnemonic() {
        let i = Instr::transfer(
            Opcode::Save,
            2,
            9,
            Tile::rows_chans(0, 8, 0, 32),
            DdrRange::new(0x1000, 2048),
        )
        .with_save_id(4);
        let s = i.listing();
        assert!(s.contains("SAVE"));
        assert!(s.contains("save 4"));
        assert!(s.contains("0x1000"));
    }
}
