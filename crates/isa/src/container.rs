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

use crate::encode::take;
use crate::{IsaError, LayerKind, LayerMeta, MemoryMap, PoolKind, Program, Shape3};

/// Container magic.
pub const MAGIC: [u8; 4] = *b"VIIC";
/// Container format version.
pub const VERSION: u16 = 1;

fn put_shape(out: &mut Vec<u8>, s: Shape3) {
    for v in [s.c, s.h, s.w] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_shape(r: &mut &[u8]) -> Shape3 {
    let mut dim = || u32::from_le_bytes(take(r));
    Shape3::new(dim(), dim(), dim())
}

/// `[tag, kernel, stride, pad, pool_tag, gem_p]`. Windowed pools are tag 2
/// with pool tag 0 (max) or 1 (avg); a global pool is tag 3 with pool
/// tag 2 and its GeM exponent.
fn kind_encoding(kind: &LayerKind) -> [u8; 6] {
    match *kind {
        LayerKind::Conv { kernel, stride, pad } => [0, kernel, stride, pad, 0, 0],
        LayerKind::DwConv { kernel, stride, pad } => [1, kernel, stride, pad, 0, 0],
        LayerKind::Pool { kind, kernel, stride, pad } => {
            let pool_tag = match kind {
                PoolKind::Max => 0,
                PoolKind::Avg => 1,
            };
            [2, kernel, stride, pad, pool_tag, 0]
        }
        LayerKind::GlobalPool { p } => [3, 0, 0, 0, 2, p],
        LayerKind::Add => [4, 0, 0, 0, 0, 0],
        LayerKind::FullyConnected => [5, 0, 0, 0, 0, 0],
    }
}

fn kind_decoding(bytes: [u8; 6]) -> Result<LayerKind, IsaError> {
    let [tag, kernel, stride, pad, pool_tag, gem_p] = bytes;
    Ok(match (tag, pool_tag) {
        (0, _) => LayerKind::Conv { kernel, stride, pad },
        (1, _) => LayerKind::DwConv { kernel, stride, pad },
        (2, 0) => LayerKind::Pool { kind: PoolKind::Max, kernel, stride, pad },
        (2, 1) => LayerKind::Pool { kind: PoolKind::Avg, kernel, stride, pad },
        (3, 2) if gem_p != 0 => LayerKind::GlobalPool { p: gem_p },
        (2 | 3, _) => {
            return Err(IsaError::Invalid(format!(
                "layer-kind tag {tag} with pool tag {pool_tag} and GeM exponent {gem_p}"
            )))
        }
        (4, _) => LayerKind::Add,
        (5, _) => LayerKind::FullyConnected,
        _ => return Err(IsaError::Invalid(format!("unknown layer-kind tag {tag}"))),
    })
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn get_str(r: &mut &[u8]) -> Result<String, IsaError> {
    if r.len() < 2 {
        return Err(IsaError::TruncatedRecord { len: r.len(), expected: 2 });
    }
    let n = usize::from(u16::from_le_bytes(take(r)));
    if r.len() < n {
        return Err(IsaError::TruncatedRecord { len: r.len(), expected: n });
    }
    let (name, rest) = r.split_at(n);
    *r = rest;
    String::from_utf8(name.to_vec()).map_err(|_| IsaError::Invalid("non-utf8 name".into()))
}

fn put_layer(out: &mut Vec<u8>, m: &LayerMeta) {
    out.extend_from_slice(&m.id.to_le_bytes());
    out.extend_from_slice(&kind_encoding(&m.kind));
    put_shape(out, m.in_shape);
    put_shape(out, m.out_shape);
    out.extend_from_slice(&m.input_addr.to_le_bytes());
    out.push(u8::from(m.input2_addr.is_some()));
    out.extend_from_slice(&m.input2_addr.unwrap_or(0).to_le_bytes());
    for v in [m.output_addr, m.weight_addr, m.weight_bytes] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(m.quant_shift);
    out.push(u8::from(m.relu));
    put_str(out, &m.name);
}

fn get_layer(r: &mut &[u8]) -> Result<LayerMeta, IsaError> {
    if r.len() < 2 + 6 + 24 + 8 + 1 + 8 + 8 + 8 + 8 + 2 {
        return Err(IsaError::TruncatedRecord { len: r.len(), expected: 75 });
    }
    let id = u16::from_le_bytes(take(r));
    let kind = kind_decoding(take(r))?;
    let in_shape = get_shape(r);
    let out_shape = get_shape(r);
    let input_addr = u64::from_le_bytes(take(r));
    let [has2] = take(r);
    let input2 = u64::from_le_bytes(take(r));
    let output_addr = u64::from_le_bytes(take(r));
    let weight_addr = u64::from_le_bytes(take(r));
    let weight_bytes = u64::from_le_bytes(take(r));
    let [quant_shift, relu] = take(r);
    let name = get_str(r)?;
    Ok(LayerMeta {
        id,
        name,
        kind,
        in_shape,
        out_shape,
        input_addr,
        input2_addr: (has2 != 0).then_some(input2),
        output_addr,
        weight_addr,
        weight_bytes,
        quant_shift,
        relu: relu != 0,
    })
}

/// Serialises a program into the self-contained container format.
#[must_use]
pub fn encode_container(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    put_str(&mut out, &program.name);
    let m = &program.memory;
    for v in [
        m.weights_base,
        m.weights_bytes,
        m.activations_base,
        m.activations_bytes,
        m.input_base,
        m.input_bytes,
        m.output_base,
        m.output_bytes,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(program.layers.len() as u32).to_le_bytes());
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
/// Bad magic/version, truncation, unknown tags, a pool tag its layer kind
/// does not run, a GeM exponent of 0, or a stream that fails program
/// validation.
pub fn decode_container(bytes: &[u8]) -> Result<Program, IsaError> {
    let mut r: &[u8] = bytes;
    if r.len() < 8 {
        return Err(IsaError::TruncatedRecord { len: r.len(), expected: 8 });
    }
    let magic = take(&mut r);
    if magic != MAGIC {
        return Err(IsaError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(take(&mut r));
    if version != VERSION {
        return Err(IsaError::UnsupportedVersion(version));
    }
    let _reserved: [u8; 2] = take(&mut r);
    let name = get_str(&mut r)?;
    if r.len() < 64 + 4 {
        return Err(IsaError::TruncatedRecord { len: r.len(), expected: 68 });
    }
    let mut word = || u64::from_le_bytes(take(&mut r));
    let memory = MemoryMap {
        weights_base: word(),
        weights_bytes: word(),
        activations_base: word(),
        activations_bytes: word(),
        input_base: word(),
        input_bytes: word(),
        output_base: word(),
        output_bytes: word(),
    };
    let layer_count = u32::from_le_bytes(take(&mut r)) as usize;
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
            kind: LayerKind::GlobalPool { p: 3 },
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
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        bytes.extend_from_slice(&[0; 64]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
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
            LayerKind::GlobalPool { p: 3 },
            LayerKind::Add,
            LayerKind::FullyConnected,
        ];
        for kind in kinds {
            assert_eq!(kind_decoding(kind_encoding(&kind)).unwrap(), kind);
        }
        // An unknown tag, a global pool that is not GeM, a windowed GeM
        // and a GeM exponent of 0.
        for bytes in [
            [99, 0, 0, 0, 0, 0],
            [3, 0, 0, 0, 0, 0],
            [3, 0, 0, 0, 1, 0],
            [2, 2, 2, 0, 2, 3],
            [3, 0, 0, 0, 2, 0],
        ] {
            assert!(matches!(kind_decoding(bytes), Err(IsaError::Invalid(_))), "{bytes:?}");
        }
    }

    #[test]
    fn gem_exponent_zero_is_rejected() {
        let p = sample_program();
        let mut bytes = encode_container(&p);
        // Header, name, memory map and layer count, then the layer's id
        // and its first five kind bytes.
        let gem_p = 4 + 2 + 2 + 2 + p.name.len() + 64 + 4 + 2 + 5;
        assert_eq!(bytes[gem_p], 3);
        bytes[gem_p] = 0;
        assert!(matches!(decode_container(&bytes), Err(IsaError::Invalid(_))));
    }
}
