//! Host description and host-only measurements: the metadata every
//! results file carries, peak resident memory, and a STREAM-style
//! triad for the memory-bandwidth denominator.

use crate::json::Value;
use std::path::Path;
use std::time::Instant;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache in bytes (the highest cache level the
/// kernel reports for cpu0), if known.
pub(crate) fn llc_bytes() -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for e in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k * 1024)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m * 1024 * 1024)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(b) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, b));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// The checked-out commit, read from `.git` under `root` when present.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host metadata for a results file.
pub fn metadata(root: &Path) -> Value {
    Value::Obj(vec![
        ("nproc".into(), Value::Num(nproc() as f64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        (
            "llc_bytes".into(),
            llc_bytes().map_or(Value::Null, |b| Value::Num(b as f64)),
        ),
        (
            "simd_native".into(),
            Value::Bool(numerics::simd::lanes_native()),
        ),
        ("commit".into(), Value::Str(commit(root))),
    ])
}

/// `(steal, total)` jiffies of all CPUs since boot, from `/proc/stat`.
/// On a virtual machine, steal is time a CPU of this guest wanted to run
/// but the hypervisor ran something else.
pub(crate) fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// `/proc/stat` counts in USER_HZ ticks, fixed at 100 per second by the
/// kernel ABI.
const USER_HZ: f64 = 100.0;

/// A measured interval: its wall seconds, and the same less the CPU
/// seconds the hypervisor stole from this guest meanwhile (`guest`).
/// Every workload keeps both of its CPUs busy while timed, so steal on
/// either delays it by about the stolen time. Without steal accounting
/// (bare metal) the two are equal.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall: f64,
    pub guest: f64,
}

pub struct Stopwatch {
    t0: Instant,
    steal0: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            steal0: cpu_jiffies().map(|j| j.0),
            t0: Instant::now(),
        }
    }

    pub fn stop(&self) -> Elapsed {
        let wall = self.t0.elapsed().as_secs_f64();
        let stolen = match (self.steal0, cpu_jiffies()) {
            (Some(s0), Some((s1, _))) => s1.saturating_sub(s0) as f64 / USER_HZ,
            _ => 0.0,
        };
        Elapsed {
            wall,
            guest: (wall - stolen).max(0.0),
        }
    }
}

/// Peak resident set size of this process so far [MB].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Triad `a = b + s·c` over f64 arrays each at least four times the
/// last-level cache, on `threads` threads; returns the median of
/// `reps` passes in GB/s, counting the three arrays' bytes once each
/// (computed bytes, not hardware traffic). Also returns the array size
/// in bytes.
pub fn stream_triad_gbps(threads: usize, reps: usize) -> (f64, u64) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let n = (4 * llc as usize).div_ceil(8);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut rates = Vec::with_capacity(reps);
    // One untimed pass faults every page in.
    for rep in 0..=reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        if rep > 0 {
            rates.push(3.0 * 8.0 * n as f64 / dt / 1e9);
        }
    }
    (
        crate::stats::median(&rates).unwrap_or(f64::NAN),
        8 * n as u64,
    )
}
