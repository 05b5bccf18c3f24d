//! # xbc-isa — instruction & uop model for the XBC reproduction
//!
//! This crate defines the simulated instruction set shared by every other
//! crate in the workspace: flat virtual [`Addr`]esses, variable-length
//! architectural [`Inst`]ructions classified by [`BranchKind`], and the
//! decoded micro-operations ([`Uop`], [`UopId`]) that the frontend
//! structures of the paper — trace cache and eXtended Block Cache — store
//! and deliver.
//!
//! The ISA is synthetic but keeps the two IA32 properties the paper's
//! motivation rests on (paper §2.1–§2.2):
//!
//! 1. instructions are variable length (1–15 bytes), so raw instruction
//!    bytes are expensive to decode in parallel, and
//! 2. each instruction expands into a variable number of uops (1–4), so
//!    decoded storage has an addressing/fragmentation problem.
//!
//! # Example
//!
//! ```
//! use xbc_isa::{decode, Addr, BranchKind, Inst};
//!
//! // A conditional branch at 0x4000, 2 bytes, decoding to 1 uop.
//! let br = Inst::new(Addr::new(0x4000), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x4100)));
//! let uops = decode(&br);
//! assert!(uops[0].ends_xb()); // conditional branches end extended blocks
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod decode;
mod inst;
mod uop;

pub use addr::Addr;
pub use decode::{decode, decode_into, decoded_len};
pub use inst::{BranchKind, Inst};
pub use uop::{Uop, UopId, UopKind};
