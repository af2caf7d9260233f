//! Self-contained program container format.
//!
//! The raw `instruction.bin` stream ([`crate::encode`]) matches the
//! paper's artefact: just instructions, with layer metadata delivered out
//! of band (the runtime configures base addresses through the IAU's
//! registers). For tooling it is convenient to have a *self-contained*
//! container that also carries the layer table and memory map, so a
//! compiled program can be stored and reloaded without the compiler:
//!
//! ```text
//! container := "VIIC" | version u16 | reserved u16
//!            | name_len u16 | name utf8
//!            | memory map (weights, activations, input, output:
//!                          base and bytes each) u64 ×8
//!            | layer_count u32 | layer*
//!            | instruction stream (the v1 `instruction.bin` format)
//! ```

use bytes::{Buf, BufMut};

use crate::{IsaError, LayerKind, LayerMeta, MemoryMap, PoolKind, Program, Shape3};

/// Container magic.
pub const MAGIC: [u8; 4] = *b"VIIC";
/// Container format version.
pub const VERSION: u16 = 1;

fn put_shape(out: &mut Vec<u8>, s: Shape3) {
    out.put_u32_le(s.c);
    out.put_u32_le(s.h);
    out.put_u32_le(s.w);
}

fn get_shape(r: &mut &[u8]) -> Shape3 {
    Shape3::new(r.get_u32_le(), r.get_u32_le(), r.get_u32_le())
}

fn kind_encoding(kind: &LayerKind) -> (u8, u8, u8, u8, u8, u8) {
    // (tag, kernel, stride, pad, pool_tag, gem_p)
    match *kind {
        LayerKind::Conv { kernel, stride, pad } => (0, kernel, stride, pad, 0, 0),
        LayerKind::DwConv { kernel, stride, pad } => (1, kernel, stride, pad, 0, 0),
        LayerKind::Pool { kind, kernel, stride, pad } => {
            let (pt, gp) = pool_encoding(kind);
            (2, kernel, stride, pad, pt, gp)
        }
        LayerKind::GlobalPool { kind } => {
            let (pt, gp) = pool_encoding(kind);
            (3, 0, 0, 0, pt, gp)
        }
        LayerKind::Add => (4, 0, 0, 0, 0, 0),
        LayerKind::FullyConnected => (5, 0, 0, 0, 0, 0),
    }
}

fn pool_encoding(kind: PoolKind) -> (u8, u8) {
    match kind {
        PoolKind::Max => (0, 0),
        PoolKind::Avg => (1, 0),
        PoolKind::Gem { p } => (2, p),
    }
}

fn pool_decoding(tag: u8, p: u8) -> Result<PoolKind, IsaError> {
    match tag {
        0 => Ok(PoolKind::Max),
        1 => Ok(PoolKind::Avg),
        2 => Ok(PoolKind::Gem { p }),
        other => Err(IsaError::Invalid(format!("unknown pool tag {other}"))),
    }
}

fn kind_decoding(
    tag: u8,
    kernel: u8,
    stride: u8,
    pad: u8,
    pool_tag: u8,
    gem_p: u8,
) -> Result<LayerKind, IsaError> {
    Ok(match tag {
        0 => LayerKind::Conv { kernel, stride, pad },
        1 => LayerKind::DwConv { kernel, stride, pad },
        2 => LayerKind::Pool { kind: pool_decoding(pool_tag, gem_p)?, kernel, stride, pad },
        3 => LayerKind::GlobalPool { kind: pool_decoding(pool_tag, gem_p)? },
        4 => LayerKind::Add,
        5 => LayerKind::FullyConnected,
        other => return Err(IsaError::Invalid(format!("unknown layer-kind tag {other}"))),
    })
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.put_u16_le(u16::try_from(bytes.len().min(u16::MAX as usize)).expect("fits"));
    out.put_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn get_str(r: &mut &[u8]) -> Result<String, IsaError> {
    if r.remaining() < 2 {
        return Err(IsaError::TruncatedRecord { len: r.remaining(), expected: 2 });
    }
    let n = usize::from(r.get_u16_le());
    if r.remaining() < n {
        return Err(IsaError::TruncatedRecord { len: r.remaining(), expected: n });
    }
    let mut buf = vec![0u8; n];
    r.copy_to_slice(&mut buf);
    String::from_utf8(buf).map_err(|_| IsaError::Invalid("non-utf8 name".into()))
}

fn put_layer(out: &mut Vec<u8>, m: &LayerMeta) {
    out.put_u16_le(m.id);
    let (tag, k, s, p, pt, gp) = kind_encoding(&m.kind);
    out.put_u8(tag);
    out.put_u8(k);
    out.put_u8(s);
    out.put_u8(p);
    out.put_u8(pt);
    out.put_u8(gp);
    put_shape(out, m.in_shape);
    put_shape(out, m.out_shape);
    out.put_u64_le(m.input_addr);
    out.put_u8(u8::from(m.input2_addr.is_some()));
    out.put_u64_le(m.input2_addr.unwrap_or(0));
    out.put_u64_le(m.output_addr);
    out.put_u64_le(m.weight_addr);
    out.put_u64_le(m.weight_bytes);
    out.put_u8(m.quant_shift);
    out.put_u8(u8::from(m.relu));
    put_str(out, &m.name);
}

fn get_layer(r: &mut &[u8]) -> Result<LayerMeta, IsaError> {
    if r.remaining() < 2 + 6 + 24 + 8 + 1 + 8 + 8 + 8 + 8 + 2 {
        return Err(IsaError::TruncatedRecord { len: r.remaining(), expected: 75 });
    }
    let id = r.get_u16_le();
    let (tag, k, s, p, pt, gp) =
        (r.get_u8(), r.get_u8(), r.get_u8(), r.get_u8(), r.get_u8(), r.get_u8());
    let kind = kind_decoding(tag, k, s, p, pt, gp)?;
    let in_shape = get_shape(r);
    let out_shape = get_shape(r);
    let input_addr = r.get_u64_le();
    let has2 = r.get_u8() != 0;
    let input2 = r.get_u64_le();
    let output_addr = r.get_u64_le();
    let weight_addr = r.get_u64_le();
    let weight_bytes = r.get_u64_le();
    let quant_shift = r.get_u8();
    let relu = r.get_u8() != 0;
    let name = get_str(r)?;
    Ok(LayerMeta {
        id,
        name,
        kind,
        in_shape,
        out_shape,
        input_addr,
        input2_addr: has2.then_some(input2),
        output_addr,
        weight_addr,
        weight_bytes,
        quant_shift,
        relu,
    })
}

/// Serialises a program into the self-contained container format.
#[must_use]
pub fn encode_container(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_slice(&MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(0);
    put_str(&mut out, &program.name);
    out.put_u64_le(program.memory.weights_base);
    out.put_u64_le(program.memory.weights_bytes);
    out.put_u64_le(program.memory.activations_base);
    out.put_u64_le(program.memory.activations_bytes);
    out.put_u64_le(program.memory.input_base);
    out.put_u64_le(program.memory.input_bytes);
    out.put_u64_le(program.memory.output_base);
    out.put_u64_le(program.memory.output_bytes);
    out.put_u32_le(program.layers.len() as u32);
    for m in &program.layers {
        put_layer(&mut out, m);
    }
    out.extend_from_slice(&crate::encode::encode_program(program));
    out
}

/// Reads a program back from a container.
///
/// Interrupt points and CalcBlob ranges are rebuilt from the stream
/// (points with no virtual instructions are not representable in the
/// stream and are dropped, as in [`Program::from_bin`]).
///
/// # Errors
///
/// Bad magic/version, truncation, unknown tags, or a stream that fails
/// program validation.
pub fn decode_container(bytes: &[u8]) -> Result<Program, IsaError> {
    let mut r: &[u8] = bytes;
    if r.remaining() < 8 {
        return Err(IsaError::TruncatedRecord { len: r.remaining(), expected: 8 });
    }
    let mut magic = [0u8; 4];
    r.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(IsaError::BadMagic(magic));
    }
    let version = r.get_u16_le();
    if version != VERSION {
        return Err(IsaError::UnsupportedVersion(version));
    }
    let _reserved = r.get_u16_le();
    let name = get_str(&mut r)?;
    if r.remaining() < 64 + 4 {
        return Err(IsaError::TruncatedRecord { len: r.remaining(), expected: 68 });
    }
    let memory = MemoryMap {
        weights_base: r.get_u64_le(),
        weights_bytes: r.get_u64_le(),
        activations_base: r.get_u64_le(),
        activations_bytes: r.get_u64_le(),
        input_base: r.get_u64_le(),
        input_bytes: r.get_u64_le(),
        output_base: r.get_u64_le(),
        output_bytes: r.get_u64_le(),
    };
    let layer_count = r.get_u32_le() as usize;
    // The count is untrusted: grow with the records actually read.
    let mut layers = Vec::new();
    for _ in 0..layer_count {
        layers.push(get_layer(&mut r)?);
    }
    Program::from_bin(name, r, layers, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdrRange, Instr, Opcode, Tile};

    fn sample_program() -> Program {
        let mut b = Program::builder("sample");
        b.layers.push(LayerMeta {
            id: 0,
            name: "pool".into(),
            kind: LayerKind::GlobalPool { kind: PoolKind::Gem { p: 3 } },
            in_shape: Shape3::new(8, 4, 4),
            out_shape: Shape3::new(8, 1, 1),
            input_addr: 0,
            input2_addr: None,
            output_addr: 128,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 0,
            relu: false,
        });
        b.memory = MemoryMap {
            activations_bytes: 256,
            input_base: 0,
            input_bytes: 128,
            output_base: 128,
            output_bytes: 8,
            ..MemoryMap::default()
        };
        b.push(Instr::transfer(
            Opcode::LoadD,
            0,
            0,
            Tile::rows_chans(0, 4, 0, 8),
            DdrRange::new(0, 128),
        ));
        b.push(Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, 1, 0, 8, 0, 8)));
        let sid = b.alloc_save_id();
        b.push(
            Instr::transfer(
                Opcode::Save,
                0,
                0,
                Tile::rows_chans(0, 1, 0, 8),
                DdrRange::new(128, 8),
            )
            .with_save_id(sid),
        );
        b.build().unwrap()
    }

    #[test]
    fn container_round_trips() {
        let p = sample_program();
        let bytes = encode_container(&p);
        let back = decode_container(&bytes).unwrap();
        assert_eq!(back.name, p.name);
        assert_eq!(back.instrs, p.instrs);
        assert_eq!(back.layers, p.layers);
        assert_eq!(back.memory, p.memory);
    }

    #[test]
    fn container_rejects_corruption() {
        let p = sample_program();
        let mut bytes = encode_container(&p);
        bytes[0] = b'X';
        assert!(matches!(decode_container(&bytes), Err(IsaError::BadMagic(_))));

        let bytes = encode_container(&p);
        assert!(decode_container(&bytes[..10]).is_err());

        let mut bytes = encode_container(&p);
        bytes[4] = 0xEE; // version
        assert!(matches!(decode_container(&bytes), Err(IsaError::UnsupportedVersion(_))));
    }

    #[test]
    fn huge_layer_count_is_a_truncation_not_an_allocation() {
        // Valid header, empty name, zeroed memory map, u32::MAX layers, nothing after.
        let mut bytes = MAGIC.to_vec();
        bytes.put_u16_le(VERSION);
        bytes.put_u16_le(0);
        bytes.put_u16_le(0);
        bytes.extend_from_slice(&[0; 64]);
        bytes.put_u32_le(u32::MAX);
        assert_eq!(bytes.len(), 78);
        assert!(matches!(decode_container(&bytes), Err(IsaError::TruncatedRecord { .. })));
    }

    #[test]
    fn every_layer_kind_round_trips() {
        let kinds = [
            LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
            LayerKind::DwConv { kernel: 3, stride: 2, pad: 1 },
            LayerKind::Pool { kind: PoolKind::Max, kernel: 2, stride: 2, pad: 0 },
            LayerKind::Pool { kind: PoolKind::Avg, kernel: 3, stride: 1, pad: 1 },
            LayerKind::GlobalPool { kind: PoolKind::Gem { p: 3 } },
            LayerKind::GlobalPool { kind: PoolKind::Avg },
            LayerKind::Add,
            LayerKind::FullyConnected,
        ];
        for kind in kinds {
            let (tag, k, s, p, pt, gp) = kind_encoding(&kind);
            assert_eq!(kind_decoding(tag, k, s, p, pt, gp).unwrap(), kind);
        }
        assert!(kind_decoding(99, 0, 0, 0, 0, 0).is_err());
        assert!(pool_decoding(7, 0).is_err());
    }
}
