//! File framing shared by every artifact a [`SessionCache`] persists: the
//! `.golden` golden run, and artifacts that higher layers keep beside it
//! (the `.ace` profile of `merlin-ace`).
//!
//! An artifact file is a header, a payload and a checksum trailer:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic, naming the format |
//! | 4 | format version, little-endian |
//! | 8 per word | the key: the session fingerprint, then any binding words |
//! | … | payload |
//! | 8 | checksum of everything before it ([`fnv1a_words`]), little-endian |
//!
//! A file whose header does not name this format, version and key is a
//! silent miss: it was never this context's artifact.  A file whose header
//! matches but whose checksum or payload decode fails is corruption, and is
//! quarantined to `<name>.corrupt` and counted, so its bytes survive for
//! diagnosis but are never trusted.  Files are written to a temporary name
//! beside the target and renamed over it, so a concurrent reader never sees
//! a torn file.
//!
//! [`SessionCache`]: crate::SessionCache

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One artifact format: what its header says.  Every format is checksummed
/// by [`fnv1a_words`].
#[derive(Debug, Clone, Copy)]
pub struct ArtifactFormat {
    /// The first eight bytes of every file of this format.
    pub magic: &'static [u8; 8],
    /// The wire-format version; files of another version are misses.
    pub version: u32,
    /// File extension of the artifact, when it sits beside the session's
    /// `.golden` (see [`Session::load_artifact`](crate::Session::load_artifact)).
    pub extension: &'static str,
}

/// Bytes of the checksum trailer.
const TRAILER_LEN: usize = 8;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes`, one byte per step from `hash`.
pub(crate) fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over `bytes`, one byte per step.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a over `bytes` taken as little-endian 8-byte words, one word per
/// step, then over the tail bytes one byte per step.  Each step is a
/// bijection of the running hash, so a file that differs from the written
/// one in a single word never keeps its checksum; at one step per word it
/// runs several times faster than [`fnv1a_bytes`] on large payloads.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET;
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    fnv1a_from(hash, words.remainder())
}

impl ArtifactFormat {
    /// The header of a file of this format for `key`.
    fn header(&self, key: &[u64]) -> Vec<u8> {
        let mut header = Vec::with_capacity(self.magic.len() + 4 + 8 * key.len());
        header.extend_from_slice(self.magic);
        header.extend_from_slice(&self.version.to_le_bytes());
        for word in key {
            header.extend_from_slice(&word.to_le_bytes());
        }
        header
    }

    /// The complete file: header for `key`, the bytes `payload` appends,
    /// and the checksum trailer.
    pub(crate) fn frame(&self, key: &[u64], payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = self.header(key);
        payload(&mut buf);
        let checksum = fnv1a_words(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Reads the artifact at `path` for `key` and decodes its payload.
    /// Returns the decoded value with the file's checksum, or `None` on a
    /// miss (no file, or a header for another format, version or key) and
    /// on corruption, which is quarantined to `<path>.corrupt` and counted
    /// in `rejects`.
    pub(crate) fn load<T>(
        &self,
        path: &Path,
        key: &[u64],
        rejects: &AtomicU64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<(T, u64)> {
        let buf = fs::read(path).ok()?;
        let header = self.header(key);
        if !buf.starts_with(&header) {
            return None;
        }
        // Header matched: from here on, failures are corruption.
        let Some(payload_end) = buf
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&end| end >= header.len())
        else {
            return quarantine(path, "corrupt", rejects);
        };
        let stored = trailer(&buf);
        if fnv1a_words(&buf[..payload_end]) != stored {
            return quarantine(path, "corrupt", rejects);
        }
        // Checksum verified: a decode failure now means the writer itself
        // was broken, or the payload contradicts the session; still
        // corruption, still quarantined.
        match decode(&buf[header.len()..payload_end]) {
            Some(value) => Some((value, stored)),
            None => quarantine(path, "corrupt", rejects),
        }
    }
}

/// The checksum trailer of a framed file.
pub(crate) fn trailer(file: &[u8]) -> u64 {
    let at = file.len() - TRAILER_LEN;
    u64::from_le_bytes(file[at..].try_into().expect("8-byte trailer"))
}

/// Writes `bytes` to `path` through a temporary file in the same directory,
/// so a concurrent reader sees the old file or the new one, never a torn
/// one.  Creates the directory if needed.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    // Named after the whole file name, so the artifacts beside one
    // `.golden` never share a temporary file.
    let tmp = with_suffix(path, &format!(".tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        // A failed rename must not leak the temp file (a read-only target
        // directory would otherwise accumulate one orphan per process).
        let _ = fs::remove_file(&tmp);
    })
}

/// Renames a rejected artifact to `<path>.<suffix>`, so the bytes survive
/// for diagnosis and cannot be read as a live artifact again, counts the
/// rejection, and reports a miss so the caller rebuilds.
pub(crate) fn quarantine<T>(path: &Path, suffix: &str, rejects: &AtomicU64) -> Option<T> {
    let _ = fs::rename(path, with_suffix(path, &format!(".{suffix}")));
    rejects.fetch_add(1, Ordering::Relaxed);
    None
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_FORMAT: ArtifactFormat = ArtifactFormat {
        magic: b"MRLNTST\0",
        version: 1,
        extension: "tst",
    };

    #[test]
    fn word_checksum_steps_per_word_then_per_tail_byte() {
        let bytes: Vec<u8> = (0u8..19).collect();
        let mut hash = FNV_OFFSET;
        for w in bytes.chunks_exact(8) {
            hash ^= u64::from_le_bytes(w.try_into().unwrap());
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for &b in &bytes[16..] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a_words(&bytes), hash);
        assert_eq!(fnv1a_words(&[]), fnv1a_bytes(&[]));
        assert_ne!(fnv1a_words(&bytes), fnv1a_bytes(&bytes));
    }

    #[test]
    fn a_framed_file_round_trips_and_misses_on_another_key() {
        let dir = std::env::temp_dir().join(format!("merlin-artifact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("a.tst");
        let bytes = TEST_FORMAT.frame(&[7, 9], |buf| buf.extend_from_slice(b"payload"));
        assert_eq!(trailer(&bytes), fnv1a_words(&bytes[..bytes.len() - 8]));
        write_atomic(&path, &bytes).unwrap();
        let rejects = AtomicU64::new(0);
        let got = TEST_FORMAT.load(&path, &[7, 9], &rejects, |p| Some(p.to_vec()));
        assert_eq!(got, Some((b"payload".to_vec(), trailer(&bytes))));
        // Another binding word is a miss, not corruption.
        assert!(TEST_FORMAT
            .load(&path, &[7, 8], &rejects, |p| Some(p.to_vec()))
            .is_none());
        assert_eq!(rejects.load(Ordering::Relaxed), 0);
        // A payload the decoder refuses is quarantined.
        assert!(TEST_FORMAT
            .load(&path, &[7, 9], &rejects, |_| None::<()>)
            .is_none());
        assert_eq!(rejects.load(Ordering::Relaxed), 1);
        assert!(!path.exists());
        assert_eq!(fs::read(dir.join("a.tst.corrupt")).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_does_not_leak_the_temp_file() {
        let dir = std::env::temp_dir().join(format!("merlin-tmp-leak-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A directory squatting on the target path makes the final rename
        // fail after the temp file was written.
        let target = dir.join("blocked.golden");
        fs::create_dir_all(&target).unwrap();
        let bytes = TEST_FORMAT.frame(&[1], |buf| buf.push(0));
        assert!(
            write_atomic(&target, &bytes).is_err(),
            "rename onto a directory must fail"
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "blocked.golden")
            .collect();
        assert!(leftovers.is_empty(), "temp file leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
