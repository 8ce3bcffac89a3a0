//! Host readings from procfs and the checkout, with no dependencies.

use std::path::Path;

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Current resident set (`VmRSS`), KiB; 0 without procfs.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set of the process so far (`VmHWM`), KiB; 0 without
/// procfs.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// CPU time of the whole process (every thread), in nanoseconds: elapsed
/// time less the time the process waited for a CPU, including the time a
/// virtual machine's host gave its CPU to other guests.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is available on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elapsed nanoseconds since the first call, off Linux.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` under `root`; `None` outside
/// a git checkout.
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// The host's speed, read from a fixed kernel interleaved with the
/// measured work.
///
/// The timed run reads process CPU time, which leaves out the time the
/// process waited for a CPU but not a CPU that runs slower (a busy
/// sibling thread of the same core, another guest's memory traffic).
/// Each reading times the kernel five times; the readings just before and
/// just after a stretch of measured work follow the speed it ran at, so
/// scaling its CPU time by `NOMINAL_S / median kernel time` of the two
/// takes out most of the drift between and within runs. The kernel is a
/// discrete-event loop: pop + push pairs on a binary heap with xorshift
/// keys, each with one random read-modify-write in a table of
/// [`TABLE_MB`] MiB, which lives in the last-level cache the host shares
/// with other guests, as a simulated network's state does. It uses only
/// `std`, so no change to the simulator changes its speed.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    readings: Vec<[f64; 5]>,
}

/// Size of the kernel's table, MiB.
pub const TABLE_MB: usize = 16;

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            table: vec![1; TABLE_MB << 17],
            readings: Vec::new(),
        }
    }
}

impl Calibration {
    /// The kernel's time at the speed host times are scaled to: about its
    /// fast-period time on a 2.1 GHz Xeon VM.
    pub const NOMINAL_S: f64 = 0.04;

    /// Take a reading: time the kernel five times.
    pub fn sample(&mut self) {
        let mut reading = [0.0; 5];
        for t in &mut reading {
            *t = kernel_s(&mut self.table);
        }
        self.readings.push(reading);
    }

    /// Median kernel time over every reading; [`Self::NOMINAL_S`] without
    /// any.
    pub fn median_s(&self) -> f64 {
        median_of(self.readings.iter())
    }

    /// Factor that scales a CPU time measured between reading `i` and
    /// the next one to nominal speed (only reading `i` if it is the last).
    pub fn factor_after(&self, i: usize) -> f64 {
        let end = (i + 2).min(self.readings.len());
        Self::NOMINAL_S / median_of(self.readings.get(i..end).unwrap_or_default().iter())
    }

    /// Median factor over the whole run, for the manifest.
    pub fn factor(&self) -> f64 {
        Self::NOMINAL_S / self.median_s()
    }

    /// Readings taken.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether no reading was taken.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }
}

/// Median kernel time of `readings`; [`Calibration::NOMINAL_S`] without
/// any.
fn median_of<'a>(readings: impl Iterator<Item = &'a [f64; 5]>) -> f64 {
    let samples: Vec<f64> = readings.flatten().copied().collect();
    if samples.is_empty() {
        Calibration::NOMINAL_S
    } else {
        dfly_stats::percentile(&samples, 50.0)
    }
}

/// CPU seconds for 300,000 pop + push pairs on a binary heap of 8,192 timed
/// entries, the access pattern of a discrete-event queue, each pair with
/// one random read-modify-write in `table`.
fn kernel_s(table: &mut [u64]) -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(8193);
    for id in 0..8192u64 {
        heap.push(Reverse((next() % 1000, id)));
    }
    let n = table.len() as u64;
    let start = cpu_ns();
    for _ in 0..300_000 {
        let Reverse((at, id)) = heap.pop().expect("the heap keeps its depth");
        let r = next();
        let (a, b) = ((r % n) as usize, ((r >> 20) % n) as usize);
        table[a] = table[a].wrapping_add(table[b] ^ id);
        heap.push(Reverse((at + 1 + r % 1000, std::hint::black_box(id))));
    }
    (cpu_ns() - start) as f64 * 1e-9
}

/// Restricts the calling thread, and every thread it starts, to the CPU it
/// is running on; the previous CPU set comes back on drop.
///
/// The sharded engine simulates on a worker thread while the calibration
/// kernel runs on the calling thread. Unpinned, the two can sit on
/// different CPUs of a shared host that run at different speeds, and the
/// kernel then does not measure the speed the simulation saw.
pub struct PinnedCpu {
    /// The CPU pinned to; `None` where pinning is not available.
    pub cpu: Option<usize>,
    #[cfg(target_os = "linux")]
    previous: [u64; 16],
}

#[cfg(target_os = "linux")]
mod affinity {
    // glibc, which `std` links on Linux; `pid` 0 is the calling thread and
    // `mask` a `cpu_set_t` of `size` bytes.
    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

impl PinnedCpu {
    /// Pin to the current CPU. Leaves the CPU set alone, with `cpu` `None`,
    /// where the calls are unavailable or fail.
    #[cfg(target_os = "linux")]
    pub fn current() -> PinnedCpu {
        let mut previous = [0u64; 16];
        let size = std::mem::size_of_val(&previous);
        // SAFETY: `previous` is a writable `cpu_set_t`-sized buffer, and
        // `mask` below one of the same size.
        let cpu = unsafe {
            let cpu = affinity::sched_getcpu();
            if !(0..1024).contains(&cpu)
                || affinity::sched_getaffinity(0, size, previous.as_mut_ptr()) != 0
            {
                None
            } else {
                let mut mask = [0u64; 16];
                mask[cpu as usize / 64] = 1 << (cpu % 64);
                (affinity::sched_setaffinity(0, size, mask.as_ptr()) == 0).then_some(cpu as usize)
            }
        };
        PinnedCpu { cpu, previous }
    }

    /// Pinning is not available off Linux.
    #[cfg(not(target_os = "linux"))]
    pub fn current() -> PinnedCpu {
        PinnedCpu { cpu: None }
    }
}

impl Drop for PinnedCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.cpu.is_some() {
            // SAFETY: `previous` holds the CPU set read in `current`.
            unsafe {
                affinity::sched_setaffinity(
                    0,
                    std::mem::size_of_val(&self.previous),
                    self.previous.as_ptr(),
                );
            }
        }
    }
}
