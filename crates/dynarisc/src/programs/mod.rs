//! The archived decoders, written in DynaRisc assembly (system **S6**).
//!
//! These are the instruction streams Micr'Olonys stores on the medium
//! (Figure 2a, steps 4–6):
//!
//! * [`dbdecode`] — DBCoder's decoder (ULEA container + LZSS), archived as
//!   *system emblems*;
//! * [`modecode`] — MOCoder's decoder (emblem cell sampling + the
//!   self-clocking cell code + de-interleaving), archived as letter pages
//!   in the Bootstrap document since it must run *before* any emblem can
//!   be read.
//!
//! Each module exposes the raw program (`program()`) and a host-side
//! runner that builds the memory image, executes the VM and extracts the
//! output. The same binaries run under the nested VeRisc emulator in
//! `ule-verisc` — restoring data without any native decoder.

pub mod dbdecode;
pub mod modecode;

use crate::vm::VmError;

/// Errors from running an archived program on the host VM.
#[derive(Debug, PartialEq, Eq)]
pub enum ProgError {
    /// VM-level failure (memory fault, step limit, …).
    Vm(VmError),
    /// The program reported a failure status word.
    Status(u16),
    /// The input claims more output than it can decode to, so the host
    /// refuses to size guest memory for it.
    Oversize,
}

impl std::fmt::Display for ProgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgError::Vm(e) => write!(f, "vm error: {e}"),
            ProgError::Status(s) => write!(f, "program reported status {s}"),
            ProgError::Oversize => write!(f, "input claims more output than it can decode to"),
        }
    }
}

impl std::error::Error for ProgError {}

impl From<VmError> for ProgError {
    fn from(e: VmError) -> Self {
        ProgError::Vm(e)
    }
}

/// Program status codes (written to data address 0).
pub mod status {
    pub const OK: u16 = 0;
    pub const BAD_MAGIC: u16 = 1;
    pub const BAD_SCHEME: u16 = 2;
    pub const BAD_VERSION: u16 = 3;
}
