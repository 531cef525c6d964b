//! Trace sinks: where events go.

use crate::event::TraceEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives trace events from a [`crate::Tracer`].
///
/// Implementations must not reorder events; the tracer guarantees it
/// calls `record` in `seq` order.
pub trait TraceSink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output and reports the first write error
    /// the sink has met, if any. Called by [`crate::Tracer::finish`].
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event. The default sink: tracing disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Buffers events in memory; the test-facing sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle that can read the buffered events after the tracer (and
    /// the boxed sink inside it) is gone.
    pub fn handle(&self) -> MemoryHandle {
        MemoryHandle {
            events: Arc::clone(&self.events),
        }
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Read-side handle to a [`MemorySink`]'s buffer.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemoryHandle {
    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }
}

/// A cloneable, lockable byte buffer implementing [`io::Write`].
///
/// Lets a test hand a writer to a [`JsonlSink`] boxed inside a tracer
/// and still read the bytes back afterwards.
#[derive(Debug, Default, Clone)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().unwrap().clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes each event as one JSON object per line (JSON Lines).
///
/// Serialization is hand-rolled in [`TraceEvent::to_json_line`] — this
/// crate deliberately has zero dependencies so it can sit below every
/// other workspace crate.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    /// First write error, if any; subsequent events are dropped. Trace
    /// output must never abort a tester run mid-flight, so the error
    /// waits for [`TraceSink::flush`] to report it.
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncates) `path` and writes JSONL to it, buffered.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            error: None,
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json_line();
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
        match &self.error {
            None => Ok(()),
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    fn enter(seq: u64) -> TraceEvent {
        TraceEvent::StageEnter {
            seq,
            stage: Stage::Learner,
            depth: 0,
            t_us: None,
        }
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        let handle = sink.handle();
        let mut boxed: Box<dyn TraceSink> = Box::new(sink);
        boxed.record(&enter(0));
        boxed.record(&enter(1));
        let got = handle.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], enter(0));
        assert_eq!(got[1], enter(1));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(&enter(0));
        sink.record(&enter(1));
        sink.flush().unwrap();
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn null_sink_is_a_noop() {
        let mut sink = NullSink;
        sink.record(&enter(0));
        sink.flush().unwrap();
    }

    /// A writer that succeeds for the first `ok_calls` writes and then
    /// fails every call (disk full, closed pipe, ...).
    struct FailingWriter {
        out: SharedBuffer,
        ok_calls: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_calls == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "writer died"));
            }
            self.ok_calls -= 1;
            self.out.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_first_write_error_and_drops_the_rest() {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(FailingWriter {
            out: buf.clone(),
            ok_calls: 2,
        });
        for seq in 0..5 {
            sink.record(&enter(seq));
        }
        // Every flush after the writer died reports the first error.
        for _ in 0..2 {
            let err = sink.flush().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero);
            assert_eq!(err.to_string(), "writer died");
        }
        // Exactly the pre-failure events made it out, as whole lines.
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[1].contains("\"seq\":1"));
    }

    #[test]
    fn tracer_survives_a_dead_writer() {
        use crate::{Stage, Tracer};
        let buf = SharedBuffer::new();
        let sink = JsonlSink::new(FailingWriter {
            out: buf.clone(),
            ok_calls: 1,
        });
        let mut t = Tracer::new(Box::new(sink)).without_timing();
        t.enter(Stage::Sieve);
        t.charge(12);
        t.enter(Stage::AdkTest);
        t.exit();
        t.exit();
        // The whole run — including the ledger footer — must complete
        // without panicking even though output died after one line; the
        // ledger itself is unaffected, and `finish` reports the error.
        assert_eq!(t.ledger().total(), 12);
        let err = t.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"ev\":\"enter\""));
    }
}
