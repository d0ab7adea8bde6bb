//! Sample statistics and `/proc` readers. Everything here is pure (the
//! parsers take text), so it is unit-tested on canned input.

use std::time::Duration;

/// `p`-th percentile (nearest rank) of `samples`, with the sample count
/// it was taken over. Sorts in place. `None` on an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    samples.get(idx).map(|v| (*v, n))
}

/// Median of integer-valued samples, interpolated inside the median's
/// bucket (the grouped-data median: bucket `d` spans `[d-0.5, d+0.5)`).
/// Message-delay counts are small integers; a plain median flips between
/// neighbours from run to run, this one moves continuously.
pub fn grouped_median(samples: &mut [u64]) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let mid = *samples.get((n - 1) / 2)?;
    let below = samples.partition_point(|&v| v < mid);
    let within = samples.partition_point(|&v| v <= mid) - below;
    let frac = (n as f64 / 2.0 - below as f64) / within as f64;
    Some((mid as f64 - 0.5 + frac, n))
}

/// Plain median (mean of the two middle values for an even count).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let hi = *samples.get(n / 2)?;
    if n % 2 == 1 {
        return Some(hi);
    }
    let lo = *samples.get(n / 2 - 1)?;
    Some((lo + hi) / 2.0)
}

/// Least-squares slope of `ln y` on `ln x`: the growth exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Kernel scheduler ticks per second. Linux fixes `USER_HZ` at 100 on
/// every architecture this repo builds for; there is no std accessor.
const CLK_TCK: f64 = 100.0;

/// `(utime, stime)` of the whole process from `/proc/<pid>/stat` text.
pub fn parse_stat_cpu(stat: &str) -> Option<(Duration, Duration)> {
    // The command name (field 2) may contain spaces and parentheses;
    // everything after the last ')' is space-separated, state first.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((
        Duration::from_secs_f64(utime / CLK_TCK),
        Duration::from_secs_f64(stime / CLK_TCK),
    ))
}

/// A `Key:   <n> kB`-style numeric field of `/proc/<pid>/status` text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary + involuntary context switches of one task's `status` text.
pub fn parse_status_ctxt(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// Process CPU time so far, `(user, system)`; zeros where `/proc` is absent.
pub fn process_cpu() -> (Duration, Duration) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

/// CPU time of the process so far at scheduler precision: on-CPU
/// nanoseconds summed over its live threads (`schedstat`), or the 10 ms
/// ticks of [`process_cpu`] where the kernel keeps no scheduler statistics.
/// Threads that already exited are not counted, so take differences while
/// the system under test is up.
pub fn process_cpu_fine() -> Duration {
    let on_cpu: u64 = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flat_map(|dir| dir.flatten())
        .filter_map(|task| {
            let text = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            text.split_ascii_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    if on_cpu > 0 {
        return Duration::from_nanos(on_cpu);
    }
    let (user, sys) = process_cpu();
    user + sys
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(live threads, context switches summed over them)` of this process.
/// Counts of threads that already exited are gone, so sample while the
/// system under test is still up.
pub fn task_stats() -> (usize, u64) {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut threads, mut ctxt) = (0, 0);
    for entry in dir.flatten() {
        threads += 1;
        if let Ok(s) = std::fs::read_to_string(entry.path().join("status")) {
            ctxt += parse_status_ctxt(&s).unwrap_or(0);
        }
    }
    (threads, ctxt)
}

/// SplitMix64: the benchmark's only randomness, so inputs depend on the
/// seed and nothing else.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_count() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some((50.0, 100)));
        assert_eq!(percentile(&mut v, 90.0), Some((90.0, 100)));
        assert_eq!(percentile(&mut v, 100.0), Some((100.0, 100)));
        assert_eq!(percentile(&mut [7.0], 99.0), Some((7.0, 1)));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_bucket() {
        // 2 below, 4 in bucket 9, 2 above: the median sits mid-bucket.
        let mut v = vec![8, 8, 9, 9, 9, 9, 10, 10];
        assert_eq!(grouped_median(&mut v), Some((9.0, 8)));
        // Mass shifting upward moves the estimate continuously.
        let mut v = vec![8, 9, 9, 9, 10, 10, 10, 10];
        let (m, n) = grouped_median(&mut v).unwrap();
        assert_eq!(n, 8);
        assert!((m - 9.5).abs() < 1e-9, "{m}");
        assert_eq!(grouped_median(&mut [5]), Some((5.0, 1)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [4.0f64, 8.0, 16.0]
            .iter()
            .map(|&n| (n, 3.0 * n.powf(2.5)))
            .collect();
        assert!((loglog_slope(&pts) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn proc_parsers_on_canned_text() {
        let stat = "4242 (e2e (child) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    357 41 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        let (u, s) = parse_stat_cpu(stat).unwrap();
        assert_eq!(u, Duration::from_millis(3570));
        assert_eq!(s, Duration::from_millis(410));
        assert_eq!(parse_stat_cpu("garbage"), None);

        let status = "Name:\te2e\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\n\
                      Threads:\t7\nvoluntary_ctxt_switches:\t120\n\
                      nonvoluntary_ctxt_switches:\t30\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(7));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert_eq!(parse_status_ctxt(status), Some(150));
    }

    #[test]
    fn mix_is_a_fixed_function_of_its_input() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
    }
}
