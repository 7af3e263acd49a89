//! Error type shared by all storage-layer modules.

use std::fmt;

/// Result alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors surfaced by the storage engine.
///
/// Storage errors are deliberately coarse: callers one layer up (the
/// relational engine) either propagate them or treat them as fatal for the
/// current statement. The variants carry enough context to debug a failing
/// test without threading string formatting through hot paths.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O error from the underlying page store.
    Io(std::io::Error),
    /// A page id that was never allocated (or was freed) was referenced.
    PageNotFound(u64),
    /// A record id pointed at a slot that does not exist on its page.
    SlotNotFound { page: u64, slot: u16 },
    /// A record was too large to ever fit on a page.
    RecordTooLarge { size: usize, max: usize },
    /// A page's bytes failed a structural sanity check.
    Corrupt(&'static str),
    /// A unique index rejected a duplicate key.
    DuplicateKey,
    /// The write-ahead log contained an unreadable record.
    WalCorrupt { offset: u64, reason: &'static str },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::PageNotFound(p) => write!(f, "page {p} not found"),
            StorageError::SlotNotFound { page, slot } => {
                write!(f, "slot {slot} not found on page {page}")
            }
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds maximum {max}")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt page: {what}"),
            StorageError::DuplicateKey => write!(f, "duplicate key in unique index"),
            StorageError::WalCorrupt { offset, reason } => {
                write!(f, "corrupt WAL record at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            StorageError::PageNotFound(7).to_string(),
            "page 7 not found"
        );
        assert_eq!(
            StorageError::SlotNotFound { page: 3, slot: 9 }.to_string(),
            "slot 9 not found on page 3"
        );
        assert_eq!(
            StorageError::RecordTooLarge {
                size: 9000,
                max: 8000
            }
            .to_string(),
            "record of 9000 bytes exceeds maximum 8000"
        );
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::other("boom");
        let err: StorageError = io.into();
        assert!(err.to_string().contains("boom"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
