//! Binary encoding of VI-ISA instruction streams (`instruction.bin`).
//!
//! The paper's compiler "dumps the wrapped VI-ISA instructions into a file
//! (`instruction.bin`)" which the runtime loads into the FPGA's DDR
//! instruction space. This module reproduces that artefact as a fixed-width
//! little-endian record format:
//!
//! ```text
//! file   := header record*
//! header := magic "VIIS" (4) | version u16 | record_size u16 | count u32 | reserved u32
//! record := opcode u8 | flags u8 | layer u16 | blob u32
//!         | h0 u16 | rows u16 | c0 u16 | chans u16 | ic0 u16 | ics u16
//!         | save_id u32 | ddr_addr u64 | ddr_bytes u32 | reserved u32
//! ```
//!
//! Each record is exactly [`RECORD_BYTES`] (40) bytes.

use crate::instr::RECORD_BYTES;
use crate::{DdrRange, Instr, IsaError, Opcode, Program, Tile};

/// File magic of `instruction.bin`.
pub const MAGIC: [u8; 4] = *b"VIIS";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 16;

/// Splits the next `N` bytes off the front of `r`. Every caller checks the
/// remaining length first, so a short slice is a codec bug, not bad input.
pub(crate) fn take<const N: usize>(r: &mut &[u8]) -> [u8; N] {
    let (head, tail) = r.split_first_chunk().expect("length checked by the caller");
    *r = tail;
    *head
}

/// Appends one instruction's 40-byte record to `out`.
fn put_instr(out: &mut Vec<u8>, instr: &Instr) {
    out.push(instr.op as u8);
    out.push(0); // flags (reserved)
    out.extend_from_slice(&instr.layer.to_le_bytes());
    out.extend_from_slice(&instr.blob.to_le_bytes());
    let t = instr.tile;
    for v in [t.h0, t.rows, t.c0, t.chans, t.ic0, t.ics] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&instr.save_id.to_le_bytes());
    out.extend_from_slice(&instr.ddr.addr.to_le_bytes());
    out.extend_from_slice(&instr.ddr.bytes.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
}

/// Encodes one instruction into its 40-byte record.
#[must_use]
pub fn encode_instr(instr: &Instr) -> [u8; RECORD_BYTES] {
    let mut out = Vec::with_capacity(RECORD_BYTES);
    put_instr(&mut out, instr);
    out.try_into().expect("a record is RECORD_BYTES long")
}

/// Decodes one instruction record.
///
/// # Errors
///
/// [`IsaError::TruncatedRecord`] when fewer than [`RECORD_BYTES`] bytes are
/// available; [`IsaError::UnknownOpcode`] for unassigned opcode bytes.
pub fn decode_instr(bytes: &[u8]) -> Result<Instr, IsaError> {
    if bytes.len() < RECORD_BYTES {
        return Err(IsaError::TruncatedRecord { len: bytes.len(), expected: RECORD_BYTES });
    }
    let mut r: &[u8] = bytes;
    let [op, _flags] = take(&mut r);
    let op = Opcode::from_byte(op)?;
    let layer = u16::from_le_bytes(take(&mut r));
    let blob = u32::from_le_bytes(take(&mut r));
    let tile = Tile {
        h0: u16::from_le_bytes(take(&mut r)),
        rows: u16::from_le_bytes(take(&mut r)),
        c0: u16::from_le_bytes(take(&mut r)),
        chans: u16::from_le_bytes(take(&mut r)),
        ic0: u16::from_le_bytes(take(&mut r)),
        ics: u16::from_le_bytes(take(&mut r)),
    };
    let save_id = u32::from_le_bytes(take(&mut r));
    let ddr = DdrRange {
        addr: u64::from_le_bytes(take(&mut r)),
        bytes: u32::from_le_bytes(take(&mut r)),
    };
    Ok(Instr { op, layer, blob, tile, ddr, save_id })
}

/// Encodes a whole program's stream (header + records).
#[must_use]
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + program.instrs.len() * RECORD_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(RECORD_BYTES as u16).to_le_bytes());
    out.extend_from_slice(&(program.instrs.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for i in &program.instrs {
        put_instr(&mut out, i);
    }
    out
}

/// Decodes an `instruction.bin` byte stream into instructions.
///
/// # Errors
///
/// Bad magic, unsupported version, record-size mismatch, truncation, or
/// unknown opcodes.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Instr>, IsaError> {
    if bytes.len() < HEADER_BYTES {
        return Err(IsaError::TruncatedRecord { len: bytes.len(), expected: HEADER_BYTES });
    }
    let mut r: &[u8] = bytes;
    let magic = take(&mut r);
    if magic != MAGIC {
        return Err(IsaError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(take(&mut r));
    if version != VERSION {
        return Err(IsaError::UnsupportedVersion(version));
    }
    let rec = usize::from(u16::from_le_bytes(take(&mut r)));
    if rec != RECORD_BYTES {
        return Err(IsaError::Invalid(format!(
            "record size {rec} does not match expected {RECORD_BYTES}"
        )));
    }
    let count = u32::from_le_bytes(take(&mut r)) as usize;
    let body = &bytes[HEADER_BYTES..];
    if body.len() != count * RECORD_BYTES {
        return Err(IsaError::TruncatedRecord { len: body.len(), expected: count * RECORD_BYTES });
    }
    let mut instrs = Vec::with_capacity(count);
    for chunk in body.chunks_exact(RECORD_BYTES) {
        instrs.push(decode_instr(chunk)?);
    }
    Ok(instrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instr {
        Instr {
            op: Opcode::VirSave,
            layer: 42,
            blob: 9001,
            tile: Tile::new(16, 8, 32, 16, 48, 16),
            ddr: DdrRange::new(0xde_adbe_ef00, 65536),
            save_id: 17,
        }
    }

    #[test]
    fn instr_round_trip() {
        let i = sample();
        assert_eq!(decode_instr(&encode_instr(&i)).unwrap(), i);
    }

    #[test]
    fn every_opcode_round_trips() {
        for op in Opcode::ALL {
            let mut i = sample();
            i.op = op;
            assert_eq!(decode_instr(&encode_instr(&i)).unwrap(), i);
        }
    }

    #[test]
    fn truncated_record_is_rejected() {
        let i = sample();
        let enc = encode_instr(&i);
        assert!(matches!(
            decode_instr(&enc[..RECORD_BYTES - 1]),
            Err(IsaError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn stream_rejects_bad_magic_and_version() {
        let mut bytes = vec![0u8; HEADER_BYTES];
        bytes[..4].copy_from_slice(b"NOPE");
        assert!(matches!(decode_stream(&bytes), Err(IsaError::BadMagic(_))));

        let mut bytes = vec![0u8; HEADER_BYTES];
        bytes[..4].copy_from_slice(&MAGIC);
        bytes[4] = 99;
        assert!(matches!(decode_stream(&bytes), Err(IsaError::UnsupportedVersion(99))));
    }

    #[test]
    fn stream_rejects_count_mismatch() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(RECORD_BYTES as u16).to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes()); // claims 2 records
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&encode_instr(&sample())); // provides 1
        assert!(matches!(decode_stream(&bytes), Err(IsaError::TruncatedRecord { .. })));
    }
}
