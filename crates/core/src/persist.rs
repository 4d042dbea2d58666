//! The reader both persisted text formats share: the importance cache
//! ([`ImportanceCache::to_text`]) and the availability prior
//! ([`AvailabilityModel::to_text`]).
//!
//! A dump is a header line naming its format and version, then one record
//! per non-empty line: whitespace-separated words of exactly sixteen hex
//! digits, each an exact `u64` (an `f64` travels as its bit pattern). This
//! module checks the header, splits and decodes the words, and numbers each
//! record by its 1-based line; what a record's words mean, and how many it
//! must have, is each format's own business.
//!
//! [`ImportanceCache::to_text`]: crate::cache::ImportanceCache::to_text
//! [`AvailabilityModel::to_text`]: crate::availability::AvailabilityModel::to_text

use std::fmt;
use std::path::Path;

/// Error persisting or restoring a dump.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The text is not a valid dump.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "dump file I/O failed: {e}"),
            PersistError::Parse { line, reason } => write!(f, "dump line {line}: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// One record of a dump: its decoded words and where it was read.
#[derive(Debug)]
pub(crate) struct Record {
    /// 1-based line number.
    pub(crate) line: usize,
    /// The line's words, in order.
    pub(crate) words: Vec<u64>,
}

impl Record {
    /// A [`PersistError::Parse`] at this record's line.
    pub(crate) fn reject(&self, reason: &'static str) -> PersistError {
        PersistError::Parse { line: self.line, reason }
    }
}

/// The records of `text`, whose first line must be `header`.
///
/// # Errors
///
/// [`PersistError::Parse`] on an empty text, another header, or a word that
/// is not sixteen hex digits.
pub(crate) fn records(text: &str, header: &str) -> Result<Vec<Record>, PersistError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first == header => {}
        Some(_) => return Err(PersistError::Parse { line: 1, reason: "unknown header" }),
        None => return Err(PersistError::Parse { line: 1, reason: "empty file" }),
    }
    lines
        .filter(|(_, line)| !line.is_empty())
        .map(|(idx, line)| {
            let words = line
                .split_ascii_whitespace()
                .map(|w| {
                    let hex = w.len() == 16 && w.bytes().all(|b| b.is_ascii_hexdigit());
                    hex.then(|| u64::from_str_radix(w, 16).ok()).flatten()
                })
                .collect::<Option<Vec<u64>>>()
                .ok_or(PersistError::Parse { line: idx + 1, reason: "bad hex word" })?;
            Ok(Record { line: idx + 1, words })
        })
        .collect()
}

/// Hands the text at `path` to `load`. A missing file is not an error: it
/// loads 0 entries (the first run of a sweep).
///
/// # Errors
///
/// [`PersistError::Io`] on a failed read; whatever `load` returns.
pub(crate) fn load_file(
    path: &Path,
    load: impl FnOnce(&str) -> Result<usize, PersistError>,
) -> Result<usize, PersistError> {
    match std::fs::read_to_string(path) {
        Ok(text) => load(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "test-format v1";

    #[test]
    fn records_carry_their_line_numbers_and_skip_blank_lines() {
        let text = format!("{HEADER}\n{:016x} {:016x}\n\n{:016x}\n", 1, u64::MAX, 7);
        let recs = records(&text, HEADER).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].line, recs[0].words.as_slice()), (2, &[1, u64::MAX][..]));
        assert_eq!((recs[1].line, recs[1].words.as_slice()), (4, &[7][..]));
        assert!(records(HEADER, HEADER).unwrap().is_empty());
    }

    #[test]
    fn words_must_be_sixteen_hex_digits() {
        for word in
            ["1", "000000000000000g", "+000000000000001", "00000000000000001", "-000000000000001"]
        {
            let text = format!("{HEADER}\n{:016x} {word}\n", 3);
            assert!(
                matches!(
                    records(&text, HEADER),
                    Err(PersistError::Parse { line: 2, reason: "bad hex word" })
                ),
                "{word:?} accepted"
            );
        }
    }
}
