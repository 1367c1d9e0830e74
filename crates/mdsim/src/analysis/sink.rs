//! Output sink shared by the analysis kernels.
//!
//! An analysis "output step" serializes the kernel's current results and
//! hands the bytes to a sink — a real file when a path is configured, or a
//! byte-counting null sink otherwise (so the serialization cost, the `ot`
//! component the scheduler reasons about, is paid either way).

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// Destination for analysis output.
#[derive(Debug, Default)]
pub struct OutputSink {
    path: Option<PathBuf>,
    /// Total bytes emitted across all output steps.
    pub bytes_written: u64,
    /// Number of output steps performed.
    pub writes: usize,
}

impl OutputSink {
    /// A sink that counts bytes but writes nowhere.
    pub fn null() -> Self {
        OutputSink::default()
    }

    /// A sink appending to `path`.
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        OutputSink {
            path: Some(path.into()),
            bytes_written: 0,
            writes: 0,
        }
    }

    /// Emits one output record.
    pub fn emit(&mut self, bytes: &[u8]) {
        if let Some(path) = &self.path {
            let mut f = File::options()
                .create(true)
                .append(true)
                .open(path)
                .expect("open analysis output file");
            f.write_all(bytes).expect("write analysis output");
        }
        self.bytes_written += bytes.len() as u64;
        self.writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts() {
        let mut s = OutputSink::null();
        s.emit(b"hello");
        s.emit(b"world!");
        assert_eq!(s.bytes_written, 11);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn file_sink_appends() {
        let dir = crate::temp_path("sink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        let _ = std::fs::remove_file(&path);
        let mut s = OutputSink::to_file(&path);
        s.emit(b"a\n");
        s.emit(b"b\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
