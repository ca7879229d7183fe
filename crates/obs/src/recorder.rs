//! The recorder: each event is written as one JSONL line into a buffered
//! sink the moment it is emitted, so tracing a long run holds no more than
//! the sink's buffer in memory, regardless of duration.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::{EventKind, TraceEvent};

/// Where one run's trace goes: the file `<dir>/<sanitised label>.jsonl`.
/// A run is traced exactly when it is given one.
///
/// `Debug` prints no field: a job input's `Debug` is its cache key, and the
/// label and directory name a file, not a run.
#[derive(Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Run label: names the file (sanitised) and the returned reference.
    pub label: String,
    /// Directory the file is written to (created if missing).
    pub dir: PathBuf,
}

impl TraceSpec {
    /// Trace `label` into `dir`.
    pub fn new(label: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        Self {
            label: label.into(),
            dir: dir.into(),
        }
    }

    /// The trace file's path.
    pub fn path(&self) -> PathBuf {
        self.dir
            .join(format!("{}.jsonl", crate::sanitize_label(&self.label)))
    }
}

impl std::fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSpec")
    }
}

/// A written trace file, as the run that wrote it returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileRef {
    /// The run label the trace belongs to.
    pub label: String,
    /// Where the JSONL file was written.
    pub path: PathBuf,
    /// Number of events (lines) in the file.
    pub events: u64,
}

enum Sink {
    File(BufWriter<File>),
    Mem(Vec<u8>),
}

/// A flight recorder for one run: a JSONL sink and its event count.
pub struct Recorder {
    sink: Sink,
    events: u64,
}

/// What a finished recorder produced.
pub struct RecorderOutput {
    /// Total events written.
    pub events: u64,
    /// The raw JSONL bytes (in-memory recorders).
    pub bytes: Option<Vec<u8>>,
}

impl Recorder {
    /// Recorder writing to a new JSONL file at `path` (parent directories
    /// are created; an existing file is truncated).
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Self {
            sink: Sink::File(BufWriter::new(File::create(path)?)),
            events: 0,
        })
    }

    /// Recorder writing to an in-memory buffer (tests).
    pub fn in_memory() -> Self {
        Self {
            sink: Sink::Mem(Vec::new()),
            events: 0,
        }
    }

    /// Write one event's line. I/O errors panic (a half-written trace is
    /// worse than a failed run, and the paths involved are
    /// developer-controlled).
    pub fn emit(&mut self, t: u64, kind: EventKind) {
        let line = TraceEvent { t, kind }.to_line();
        let written = match &mut self.sink {
            Sink::File(w) => writeln!(w, "{line}"),
            Sink::Mem(buf) => writeln!(buf, "{line}"),
        };
        written.expect("trace write failed");
        self.events += 1;
    }

    /// Flush and close the sink.
    pub fn finish(self) -> io::Result<RecorderOutput> {
        let bytes = match self.sink {
            Sink::File(mut w) => {
                w.flush()?;
                None
            }
            Sink::Mem(buf) => Some(buf),
        };
        Ok(RecorderOutput {
            events: self.events,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Far more than one `BufWriter` buffer (8 KiB) of lines: the file sink
    /// flushes many times mid-run, and must still write exactly the memory
    /// sink's bytes, every event once and in order.
    #[test]
    fn file_sink_writes_identical_bytes_to_memory_sink() {
        const EVENTS: u64 = 5_000;
        let dir = std::env::temp_dir().join(format!("obs-rec-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let mut f = Recorder::to_file(&path).unwrap();
        let mut m = Recorder::in_memory();
        for seq in 0..EVENTS {
            f.emit(seq * 7, EventKind::Generated { seq });
            m.emit(seq * 7, EventKind::Generated { seq });
        }
        assert_eq!(f.finish().unwrap().events, EVENTS);
        let mem = m.finish().unwrap().bytes.unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(file.len() > 4 * 8 * 1024, "{} bytes", file.len());
        assert_eq!(file, mem);
        let text = String::from_utf8(mem).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| match TraceEvent::parse_line(l).unwrap().kind {
                EventKind::Generated { seq } => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, (0..EVENTS).collect::<Vec<_>>());
    }

    #[test]
    fn event_count_is_reported() {
        let mut r = Recorder::in_memory();
        for seq in 0..5 {
            r.emit(seq, EventKind::Generated { seq });
        }
        let out = r.finish().unwrap();
        let lines = out.bytes.unwrap();
        assert_eq!(String::from_utf8(lines).unwrap().lines().count(), 5);
        assert_eq!(out.events, 5);
    }
}
