//! # inca-compiler — from CNN graphs to interruptible VI-ISA
//!
//! Reproduces the compilation step of the INCA framework (paper Fig. 1c):
//!
//! 1. **Lowering** ([`lower`]): the network topology ([`inca_model::Network`])
//!    is quantised (power-of-two shifts), laid out in the task's DDR address
//!    space and turned into per-layer execution metadata.
//! 2. **Code generation** ([`CodeGen`]): each layer is tiled to the
//!    accelerator's parallelism (`Para_in`/`Para_out`/`Para_height`) and
//!    buffer capacities, producing the *original* ISA sequence
//!    (`LOAD_W`/`LOAD_D`/`CALC_I`/`CALC_F`/`SAVE`) grouped into CalcBlobs,
//!    one layer at a time into a buffer reused for every layer.
//! 3. **VI pass** ([`vi`]): "INCA goes further than previous CNN
//!    compilers. It selects the optimized interrupt positions in the
//!    original instruction sequence, and adds virtual instructions at these
//!    positions" — one interrupt point after every `SAVE` and after every
//!    `CALC_F` (paper §IV-C), wrapping the stream into the interruptible
//!    VI-ISA.
//!
//! Steps 2 and 3 stream: [`Compiler::compile_vi`] hands each layer's
//! original instructions straight to the VI pass, which computes that
//! layer's load liveness and appends the layer with its virtual groups to
//! the output program, so the original-ISA program is never built. Each
//! layer costs time linear in its instructions (O(1) per load and per
//! CALC) and memory for its own instructions only. [`Compiler::compile`]
//! builds the original program from the same per-layer code generation,
//! and [`vi::vi_pass`] runs the same per-layer pass over it.
//!
//! ## Example
//!
//! ```
//! use inca_compiler::Compiler;
//! use inca_isa::ArchSpec;
//! use inca_model::{zoo, Shape3};
//!
//! let net = zoo::tiny(Shape3::new(3, 64, 64))?;
//! let compiler = Compiler::new(ArchSpec::angel_eye_small());
//! let original = compiler.compile(&net)?;         // original ISA
//! let vi = compiler.compile_vi(&net)?;            // interruptible VI-ISA
//! assert!(vi.stats().virtual_instrs > 0);
//! assert_eq!(original.stats().virtual_instrs, 0);
//! // The VI stream with virtual instructions erased equals the original.
//! let stripped: Vec<_> = vi.original_instrs().map(|(_, i)| *i).collect();
//! assert_eq!(stripped, original.instrs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod error;
mod lower;
mod options;

pub mod vi;

pub use codegen::CodeGen;
pub use error::CompileError;
pub use lower::{lower, Lowered};
pub use options::{CompileOptions, LoopOrder};

use inca_isa::{ArchSpec, Program};
use inca_model::Network;

/// The INCA compiler: network in, (VI-)ISA program out.
#[derive(Debug, Clone)]
pub struct Compiler {
    arch: ArchSpec,
    options: CompileOptions,
}

impl Compiler {
    /// Creates a compiler for the given accelerator architecture with
    /// default options.
    #[must_use]
    pub fn new(arch: ArchSpec) -> Self {
        Self { arch, options: CompileOptions::default() }
    }

    /// Creates a compiler with explicit options.
    #[must_use]
    pub fn with_options(arch: ArchSpec, options: CompileOptions) -> Self {
        Self { arch, options }
    }

    /// The target architecture.
    #[must_use]
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The compile options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles to the *original* (non-interruptible) ISA.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for invalid networks, unsupported
    /// geometries (e.g. FC inputs wider than the tile encoding) or
    /// buffer-capacity violations.
    pub fn compile(&self, network: &Network) -> Result<Program, CompileError> {
        let lowered = lower(network, &self.arch, &self.options)?;
        CodeGen::new(&self.arch, &self.options).emit(network, &lowered)
    }

    /// Compiles to the interruptible VI-ISA: the same program as
    /// [`vi::vi_pass`] of [`Compiler::compile`]'s, built in one streaming
    /// pass — each layer's original instructions go from code generation
    /// straight through the VI pass, and no original-ISA program is built.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile_vi(&self, network: &Network) -> Result<Program, CompileError> {
        let lowered = lower(network, &self.arch, &self.options)?;
        let mut pass = vi::ViPass::default();
        CodeGen::new(&self.arch, &self.options)
            .emit_with(network, &lowered, |b, layer| pass.append(b, layer, 0..layer.len()))
    }
}
