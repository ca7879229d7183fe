//! The bounded-ring recorder: events accumulate in memory and spill to a
//! JSONL sink whenever the ring fills, so tracing a long run costs a fixed
//! amount of RAM regardless of duration.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::{EventKind, TraceEvent};

/// Recorder tuning knobs. These are *semantic* settings: they change which
/// events a trace contains (decimation) but never how the traced system
/// behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events buffered before a spill to the sink.
    pub ring_capacity: usize,
    /// Emit every Nth occupancy change per queue (1 = every change).
    pub queue_decimation: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 4096,
            queue_decimation: 32,
        }
    }
}

/// Where one run's trace goes: the file `<dir>/<sanitised label>.jsonl`,
/// recorded with [`TraceConfig::default`]. A run is traced exactly when it
/// is given one.
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

/// A flight recorder for one run: ring buffer plus spill sink.
pub struct Recorder {
    cfg: TraceConfig,
    ring: Vec<TraceEvent>,
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
    /// Recorder spilling to a new JSONL file at `path` (parent directories
    /// are created; an existing file is truncated).
    pub fn to_file(cfg: TraceConfig, path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let w = BufWriter::new(File::create(path)?);
        Ok(Self {
            ring: Vec::with_capacity(cfg.ring_capacity.max(1)),
            cfg,
            sink: Sink::File(w),
            events: 0,
        })
    }

    /// Recorder spilling to an in-memory buffer (tests, live loopback runs).
    pub fn in_memory(cfg: TraceConfig) -> Self {
        Self {
            ring: Vec::with_capacity(cfg.ring_capacity.max(1)),
            cfg,
            sink: Sink::Mem(Vec::new()),
            events: 0,
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Record one event. Spills the ring when it reaches capacity; I/O
    /// errors at spill time panic (a half-written trace is worse than a
    /// failed run, and the paths involved are developer-controlled).
    pub fn emit(&mut self, t: u64, kind: EventKind) {
        self.ring.push(TraceEvent { t, kind });
        if self.ring.len() >= self.cfg.ring_capacity.max(1) {
            self.spill().expect("trace spill failed");
        }
    }

    fn spill(&mut self) -> io::Result<()> {
        let w: &mut dyn Write = match &mut self.sink {
            Sink::File(w) => w,
            Sink::Mem(buf) => buf,
        };
        self.events += self.ring.len() as u64;
        for ev in self.ring.drain(..) {
            writeln!(w, "{}", ev.to_line())?;
        }
        Ok(())
    }

    /// Flush the remaining ring contents and close the sink.
    pub fn finish(mut self) -> io::Result<RecorderOutput> {
        self.spill()?;
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

    fn small(cap: usize) -> Recorder {
        Recorder::in_memory(TraceConfig {
            ring_capacity: cap,
            queue_decimation: 1,
        })
    }

    #[test]
    fn ring_spills_and_preserves_order() {
        let mut r = small(3);
        for seq in 0..10 {
            r.emit(seq, EventKind::Generated { seq });
        }
        let out = r.finish().unwrap();
        let text = String::from_utf8(out.bytes.unwrap()).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| match TraceEvent::parse_line(l).unwrap().kind {
                EventKind::Generated { seq } => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn file_sink_writes_identical_bytes_to_memory_sink() {
        let dir = std::env::temp_dir().join(format!("obs-rec-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let cfg = TraceConfig {
            ring_capacity: 4,
            queue_decimation: 1,
        };
        let mut f = Recorder::to_file(cfg, &path).unwrap();
        let mut m = Recorder::in_memory(cfg);
        for seq in 0..9 {
            f.emit(seq * 7, EventKind::Generated { seq });
            m.emit(seq * 7, EventKind::Generated { seq });
        }
        f.finish().unwrap();
        let mem = m.finish().unwrap().bytes.unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), mem);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression guard for the exact-capacity boundary: writing precisely
    /// `capacity` events must spill exactly once with every event present
    /// once, and `capacity + 1` must not drop or duplicate the event that
    /// lands right after the spill.
    #[test]
    fn exact_capacity_boundary_drops_and_duplicates_nothing() {
        const CAP: u64 = 5;
        for total in [CAP, CAP + 1] {
            let mut r = small(CAP as usize);
            for seq in 0..total {
                r.emit(seq, EventKind::Generated { seq });
            }
            let out = r.finish().unwrap();
            assert_eq!(out.events, total, "event count for {total} emits");
            let text = String::from_utf8(out.bytes.unwrap()).unwrap();
            let seqs: Vec<u64> = text
                .lines()
                .map(|l| match TraceEvent::parse_line(l).unwrap().kind {
                    EventKind::Generated { seq } => seq,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(
                seqs,
                (0..total).collect::<Vec<_>>(),
                "JSONL for {total} emits at capacity {CAP} must hold every \
                 event exactly once, in order"
            );
        }
    }

    #[test]
    fn event_count_is_reported() {
        let mut r = small(2);
        for seq in 0..5 {
            r.emit(seq, EventKind::Generated { seq });
        }
        let out = r.finish().unwrap();
        let lines = out.bytes.unwrap();
        assert_eq!(String::from_utf8(lines).unwrap().lines().count(), 5);
        assert_eq!(out.events, 5);
    }
}
