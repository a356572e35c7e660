//! What the kernel knows about this process — run-queue waiting and peak
//! resident memory (Linux `/proc`; zeros elsewhere) — and the one thing the
//! benchmark asks of it: to keep a run on a single CPU.

/// Confines the calling thread, and every thread it spawns from now on, to
/// the lowest-numbered CPU it is allowed on. Returns that CPU, or `None`
/// where that is not possible (the run then proceeds unconfined).
///
/// Why a run measures on one CPU: on the 2-vCPU sandbox a thread waking a
/// thread on the *other* vCPU costs an inter-processor interrupt through the
/// hypervisor, tens of microseconds that depend on what the host is doing.
/// The library's pool hands work across threads at every step, so the
/// serving workloads measured that cost and little else: identical runs of
/// `exec-move` took between 17 and 52 ms per round, and for minutes at a time
/// every pool workload slowed 2-3x while single-threaded work lost 5 %. On
/// one CPU a hand-over is a context switch, and the same runs repeat within a
/// few percent, next to a busy neighbour or not (README.md, "Noise").
/// `available_parallelism()` honours the mask, so `ExecutorPool::global()`
/// gets one worker — the shape of every baseline recorded so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn confine_to_one_cpu() -> Option<usize> {
    // The C library's `cpu_set_t`: 1024 bits in `unsigned long` words.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread; `allowed` is a live, writable
    // `cpu_set_t` of exactly the size passed, which the call fills in.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << bit;
    // SAFETY: as above; `only` is only read.
    (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &only) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn confine_to_one_cpu() -> Option<usize> {
    None
}

/// On-CPU and waiting-to-run time summed over the threads alive now.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    on_cpu_ns: u64,
    wait_ns: u64,
}

/// Reads `/proc/self/task/*/schedstat` (`<on-cpu ns> <run-queue wait ns>
/// <timeslices>` per thread). The library's pool threads live as long as the
/// process, so differences between two reads are meaningful.
pub fn schedstat() -> SchedStat {
    let mut total = SchedStat::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        total.on_cpu_ns += fields.next().unwrap_or(0);
        total.wait_ns += fields.next().unwrap_or(0);
    }
    total
}

impl SchedStat {
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }

    /// Time runnable threads spent waiting for a core, per unit of time they
    /// spent running.
    pub fn wait_share(self) -> f64 {
        if self.on_cpu_ns == 0 {
            0.0
        } else {
            self.wait_ns as f64 / self.on_cpu_ns as f64
        }
    }
}

/// `VmHWM` of `/proc/self/status` in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
