//! The simulated GT200/TSUBAME timeline is the reproduction's fixed
//! point: every launch's name, stream, order and simulated interval.
//! These tests fold the Phantom-mode schedule into FNV-1a hashes and
//! compare them against constants recorded from the reference schedule,
//! so any change to what the drivers issue, or when the cost model says
//! it runs, fails here rather than only in the figure outputs.
//!
//! When a change is *meant* to move the timeline, print the new hashes
//! with `cargo test --test schedule -- --nocapture`, and say why they
//! moved where the constants are updated.

use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport, OverlapMode};
use asuca_gpu::SingleGpu;
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use vgpu::{DeviceSpec, ExecMode, OpKind};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The mountain wave (Agnesi terrain, warm rain, 3 tracers) with every
/// environment default pinned, so the schedule does not depend on
/// `ASUCA_FAULT_*`, `ASUCA_CHECKPOINT_EVERY` or `ASUCA_GUARD_EVERY`.
fn cfg(nx: usize, ny: usize, nz: usize) -> ModelConfig {
    let mut c = ModelConfig::mountain_wave(nx, ny, nz);
    c.fault = None;
    c.checkpoint_every = 0;
    c.guard_every = 0;
    c.threads = 1;
    c
}

/// Every record of `steps` Phantom steps of one device after set-up, as
/// (name, kind, stream, start bits, end bits).
fn single_hash(c: ModelConfig, steps: usize) -> (u64, usize) {
    let mut gpu = SingleGpu::<f32>::new(c, DeviceSpec::tesla_s1070(), ExecMode::Phantom);
    gpu.dev.profiler.reset();
    gpu.run(steps).unwrap();
    let mut h = Fnv::new();
    let recs = gpu.dev.profiler.records();
    for r in recs {
        h.str(r.name);
        h.word(match r.kind {
            OpKind::Kernel => 0,
            OpKind::CopyH2D => 1,
            OpKind::CopyD2H => 2,
        });
        h.word(r.stream as u64);
        h.word(r.start.to_bits());
        h.word(r.end.to_bits());
    }
    h.word(gpu.dev.host_time().to_bits());
    (h.0, recs.len())
}

/// The report's simulated totals and rank 0's per-kernel breakdown
/// (sorted by name: `by_name` orders equal times arbitrarily).
fn report_hash(r: &MultiGpuReport) -> u64 {
    let mut h = Fnv::new();
    for t in [r.total_time_s, r.compute_s, r.mpi_s, r.pcie_s] {
        h.word(t.to_bits());
    }
    let mut kb = r.kernel_breakdown.clone();
    kb.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, calls, secs) in &kb {
        h.str(name);
        h.word(*calls);
        h.word(secs.to_bits());
    }
    h.0
}

fn multi_hash(local_cfg: ModelConfig, overlap: OverlapMode, steps: usize) -> u64 {
    let mc = MultiGpuConfig {
        local_cfg,
        px: 2,
        py: 2,
        overlap,
        spec: DeviceSpec::tesla_s1070(),
        net: NetworkSpec::tsubame1_infiniband(),
        mode: ExecMode::Phantom,
        steps,
        detailed_profile: true,
    };
    report_hash(&run_multi::<f32>(&mc, &|_, _, _, _| {}).expect("run failed"))
}

fn check(label: &str, got: u64, want: u64) {
    println!("{label}: {got:#018x}");
    assert_eq!(
        got, want,
        "{label}: simulated schedule changed ({got:#018x} vs pinned {want:#018x})"
    );
}

#[test]
fn single_device_step_schedule_is_pinned() {
    let (h, n) = single_hash(cfg(48, 40, 16), 1);
    assert_eq!(n, 315, "launches and copies in one step");
    check("single, 1 step", h, 0xc16d_a7d0_92ee_343e);
}

#[test]
fn single_device_checkpointed_run_schedule_is_pinned() {
    // Guard-rail scans and checkpoints between steps are part of the
    // timeline too.
    let mut c = cfg(48, 40, 16);
    c.checkpoint_every = 1;
    c.guard_every = 1;
    check(
        "single, 2 steps, checkpoint+guard",
        single_hash(c, 2).0,
        0xc82c_fd0b_1871_4119,
    );
}

#[test]
fn multi_rank_serial_schedule_is_pinned() {
    check(
        "2x2 serial, 2 steps",
        multi_hash(cfg(48, 40, 16), OverlapMode::None, 2),
        0xf44a_07f3_051e_9677,
    );
}

#[test]
fn multi_rank_overlap_schedule_is_pinned() {
    check(
        "2x2 overlap, 2 steps",
        multi_hash(cfg(48, 40, 16), OverlapMode::Overlap, 2),
        0x7070_ae51_91e5_c0cf,
    );
}

#[test]
fn multi_rank_checkpointed_run_schedule_is_pinned() {
    // The step-0 checkpoint, guard scans and per-step checkpoints of the
    // multi-rank front-end.
    let mut c = cfg(48, 40, 16);
    c.checkpoint_every = 1;
    c.guard_every = 1;
    check(
        "2x2 overlap, 2 steps, checkpoint+guard",
        multi_hash(c, OverlapMode::Overlap, 2),
        0x51bf_6b9d_8745_9da7,
    );
}
