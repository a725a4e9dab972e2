//! Error type for the mini-InnoDB engine.

use share_core::FtlError;
use share_vfs::VfsError;
use std::fmt;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// File-system / device failure.
    Vfs(VfsError),
    /// Direct device failure (redo log device).
    Device(FtlError),
    /// A page failed its checksum and no double-write copy exists to
    /// repair it — the unrecoverable torn page the paper's §2 warns about
    /// (only reachable in `DwbOff` mode).
    TornPage { page_no: u64 },
    /// A record is too large for a page.
    RecordTooLarge { bytes: usize, max: usize },
    /// The redo log is corrupt or from an incompatible layout.
    RedoCorrupt(String),
    /// The engine configuration cannot be used (e.g. an unaddressable
    /// page size).
    Config(String),
    /// Internal invariant violation (a bug).
    Corrupt(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Vfs(e) => write!(f, "vfs: {e}"),
            EngineError::Device(e) => write!(f, "device: {e}"),
            EngineError::TornPage { page_no } => {
                write!(f, "page {page_no} is torn and unrecoverable (no double-write copy)")
            }
            EngineError::RecordTooLarge { bytes, max } => {
                write!(f, "record of {bytes} B exceeds page limit {max} B")
            }
            EngineError::RedoCorrupt(m) => write!(f, "redo log corrupt: {m}"),
            EngineError::Config(m) => write!(f, "bad configuration: {m}"),
            EngineError::Corrupt(m) => write!(f, "engine corrupt: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Vfs(e) => Some(e),
            EngineError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VfsError> for EngineError {
    fn from(e: VfsError) -> Self {
        EngineError::Vfs(e)
    }
}

impl From<FtlError> for EngineError {
    fn from(e: FtlError) -> Self {
        EngineError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = VfsError::NotFound("x".into()).into();
        assert!(e.to_string().contains("x"));
        let e: EngineError = FtlError::DeviceFull.into();
        assert!(e.to_string().contains("device"));
        assert!(EngineError::TornPage { page_no: 7 }.to_string().contains("7"));
    }
}
