//! Span recording around the calls the benchmark makes into the program,
//! the counting allocator of the traced binary, and the `/proc` readers.
//!
//! Spans are recorded in both binaries: a span costs two reads each of the
//! wall and CPU clocks and a `Vec` push, and every timed call is at least
//! tens of microseconds. What the traced binary adds is allocation counting
//! and the trace file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocator of the traced binary: forwards to [`System`] and, while
/// counting is on, counts each `alloc`, `alloc_zeroed` and `realloc` call
/// on any thread. The untraced binary does not install it.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(&self) {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turn allocation counting on or off (a no-op without [`CountingAlloc`]).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Repetition the span belongs to.
    pub rep: usize,
    /// Whether the repetition ran traced (allocation counting on).
    pub traced: bool,
    /// The call, named `<crate>.<module>.<function>`, or the workload name
    /// for a repetition's root span.
    pub name: &'static str,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// CPU time of the whole process, all threads, during the span.
    pub cpu_ns: u64,
    /// Allocator calls made inside the span (0 when not counting).
    pub allocs: u64,
    /// Values read at the span's end: events executed, bytes, RSS.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns() / 1e6
    }

    /// An attribute by key, 0 when absent.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// In-memory span log of one benchmark process.
pub struct Recorder {
    origin: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
    /// Open spans: index, and the allocation count and CPU clock at opening.
    stack: Vec<(usize, u64, u64)>,
    last_closed: Option<usize>,
    rep: usize,
    traced: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_closed: None,
            rep: 0,
            traced: false,
        }
    }
}

impl Recorder {
    /// Tag the spans that follow with repetition `rep`.
    pub fn start_rep(&mut self, rep: usize, traced: bool) {
        self.rep = rep;
        self.traced = traced;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.nest(name, |_| f())
    }

    /// Time `f` as a span named `name` that `f` records child spans in.
    pub fn nest<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.open(name);
        let v = f(self);
        self.close(id);
        v
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().map(|&(p, _, _)| p);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            rep: self.rep,
            traced: self.traced,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            cpu_ns: 0,
            allocs: 0,
            attrs: Vec::new(),
        });
        self.stack.push((id, allocs(), cpu_ns()));
        id
    }

    fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let cpu_end = cpu_ns();
        let (top, allocs0, cpu0) = self.stack.pop().expect("close without open span");
        assert_eq!(top, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cpu_ns = cpu_end - cpu0;
        span.allocs = allocs() - allocs0;
        self.last_closed = Some(id);
    }

    /// Attach `key = value` to the span closed last.
    pub fn note(&mut self, key: &'static str, value: f64) {
        let id = self.last_closed.expect("note before any span closed");
        self.spans[id].attrs.push((key, value));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"rep\":{},\"traced\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"allocs\":{}",
                s.rep, s.traced, s.name, s.start_ns, s.end_ns, s.cpu_ns, s.allocs
            )?;
            for (k, v) in &s.attrs {
                write!(out, ",\"{k}\":{}", crate::json_f64(*v))?;
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    }
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU nanoseconds of this process, all threads, finished
/// ones included.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the clock id
    // is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
pub fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"));
    let kb: f64 = line[key.len() + 1..]
        .trim()
        .trim_end_matches(" kB")
        .parse()
        .expect("numeric kB value");
    kb / 1024.0
}
