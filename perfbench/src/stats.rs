//! The benchmark's own arithmetic: percentiles, medians, the failure
//! share, and the process readers (peak RSS, per-thread CPU time).

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples; `q` is clamped to `[0, 1]`, and `q = 0` gives
/// the minimum.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Nearest-rank quantile of `values` (see [`percentile`]); `None` when
/// empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(values[rank.clamp(1, n) - 1])
}

/// How one attempted request ended, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the reply passed every check.
    Ok,
    /// Refused at admission (full queue, shed tenant, unattested).
    Rejected,
    /// Accepted, then shed by the server instead of served.
    Shed,
    /// The call into the program returned an error.
    Failed,
    /// A reply arrived but failed its check.
    BadReply,
}

/// Attempted and failed request counts; every outcome but
/// [`Outcome::Ok`] counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Attempted requests that did not end in [`Outcome::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted request.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn failure_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident memory in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Resets this process's peak resident memory to its current resident
/// memory, so the next [`peak_rss_mib`] covers only what runs after.
///
/// # Errors
///
/// The kernel refusing the reset.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Nanoseconds a thread of this process has run on a CPU: the first field
/// of its `schedstat`. `None` once the thread has exited.
pub fn thread_cpu_ns(tid: u64) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The kernel thread id of the calling thread.
pub fn current_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it is allowed to run on; returns that CPU.
///
/// # Errors
///
/// The affinity calls failing, or an empty affinity mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = lowest_cpu(&mask).ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The lowest CPU set in an affinity mask.
fn lowest_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.0), Some(7));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 1.0), Some(7));
        assert_eq!(percentile(&[1, 9], 0.5), Some(1));
        assert_eq!(percentile(&[1, 9], 0.51), Some(9));
        assert_eq!(percentile(&[1, 9], 0.99), Some(9));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        assert_eq!(percentile(&hundred, 0.99), Some(99));
        assert_eq!(percentile(&hundred, 1.0), Some(100));
        // Out-of-range quantiles clamp rather than index out of bounds.
        assert_eq!(percentile(&hundred, -1.0), Some(1));
        assert_eq!(percentile(&hundred, 2.0), Some(100));
        // p99 of 1000 samples leaves exactly ten above it.
        let thousand: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&thousand, 0.99).unwrap();
        assert_eq!(thousand.iter().filter(|&&v| v > p99).count(), 10);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&mut [], 0.25), None);
        assert_eq!(quantile(&mut [2.0], 0.25), Some(2.0));
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0], 0.25), Some(1.0));
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0], 0.75), Some(3.0));
        assert_eq!(quantile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 0.25), Some(2.0));
        assert_eq!(quantile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 0.75), Some(4.0));
    }

    #[test]
    fn median_edges() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [4.0, 1.0]), Some(2.5));
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn failure_share_counts_every_non_ok_outcome() {
        let mut t = Tally::default();
        assert_eq!(t.failure_share(), 0.0);
        for o in [
            Outcome::Ok,
            Outcome::Rejected,
            Outcome::Shed,
            Outcome::Failed,
            Outcome::BadReply,
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 4
            }
        );
        assert_eq!(t.failure_share(), 0.5);
        let mut sum = Tally::default();
        sum.add(t);
        sum.add(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(sum.failure_share(), 0.4);
    }

    #[test]
    fn peak_rss_reader() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t garbage kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        let live = peak_rss_mib().expect("this process has a VmHWM");
        assert!(live > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let high = peak_rss_mib().expect("VmHWM");
        assert!(high >= 64.0, "{high}");
        reset_peak_rss().expect("clear_refs");
        assert!(peak_rss_mib().expect("VmHWM") < high - 32.0);
    }

    #[test]
    fn lowest_cpu_of_a_mask() {
        assert_eq!(lowest_cpu(&[0, 0]), None);
        assert_eq!(lowest_cpu(&[0b1010, 0]), Some(1));
        assert_eq!(lowest_cpu(&[0, 1 << 5]), Some(69));
    }

    #[test]
    fn thread_cpu_time_reader() {
        let tid = current_tid().expect("thread id");
        let before = thread_cpu_ns(tid).expect("own schedstat");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns(tid).expect("own schedstat") > before);
    }
}
