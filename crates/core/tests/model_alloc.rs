//! Allocation regression pins for the interference-model refit path (the PR 3
//! candidate-buffer pin, applied to the estimator refactor), the Viterbi decoder
//! and the sphere decoder's search.
//!
//! Before the refactor, every `InterferenceModel` refit collected two temporary
//! axis `Vec<f64>`s per bin for bandwidth selection and rebuilt each bin's KDE from
//! a fresh sample copy — hundreds of `O(P·N_p)`-sized allocations per preamble
//! update. The split-axis sample store selects bandwidths straight from the stored
//! slices (with one reusable sort scratch), so the counts pinned here would jump
//! by at least two per occupied bin if the temporaries ever came back.
//!
//! The test binary installs a counting global allocator that counts only the
//! allocations of the thread inside [`allocations_during`], so the test harness
//! (spawning and reporting the other tests) never leaks into a measurement; each
//! measurement runs the workload after a warm-up of the same shape.

use cprecycle::decision::DecoderScratch;
use cprecycle::segments::SymbolSegments;
use cprecycle::{CpRecycleConfig, FixedSphereMlDecoder, InterferenceModel};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations of this thread while counting is on; `None` while off.
    /// Const-initialised and drop-free, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_allocation() {
    // `try_with`: a thread tearing down its TLS still allocates, uncounted.
    let _ = ALLOCATIONS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

struct CountingAllocator;

// The test binary only counts; all real work is delegated to the system allocator.
// SAFETY: every method below delegates the actual (de)allocation to `System`
// verbatim — same layout, same pointer — so `System`'s GlobalAlloc guarantees
// carry over; the only addition is a thread-local counter bump with no effect
// on memory management.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System`; `ptr`/`layout` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System` with the caller's arguments unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations (and reallocations) the calling
/// thread made inside it.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0)
}

#[test]
fn viterbi_decode_is_allocation_free_after_warmup() {
    // The PR 8 satellite pin: the Viterbi decoder owns its depuncture and
    // back-pointer scratch, and with a warmed-up caller buffer `decode_into`
    // performs zero heap allocations per decoded frame. Before the rework every
    // decode allocated the depunctured stream, the path-metric vectors, the
    // back-pointer matrix and the output — ≥ 4 allocations per frame, one of them
    // `O(num_steps × 64)`.
    use ofdmphy::convcode::{encode, CodeRate};
    use ofdmphy::viterbi::ViterbiDecoder;

    let decoder = ViterbiDecoder::new();
    let mut data: Vec<u8> = (0..1200).map(|i| ((i * 7 + 3) % 5 > 2) as u8).collect();
    data.extend_from_slice(&[0; 6]);
    for rate in [CodeRate::Half, CodeRate::ThreeQuarters] {
        let coded = encode(&data, rate).unwrap();
        let mut out = Vec::new();
        // Warm-up sizes the decoder scratch and the output buffer for this frame.
        decoder.decode_into(&coded, rate, &mut out).unwrap();
        assert_eq!(out, data);
        let during = allocations_during(|| decoder.decode_into(&coded, rate, &mut out).unwrap());
        assert_eq!(
            during, 0,
            "warm Viterbi decode allocated {during} times at rate {rate:?}"
        );
        assert_eq!(out, data);
    }
}

#[test]
fn model_update_does_not_collect_per_bin_temporaries() {
    // A preamble update refits every occupied bin (52 at 802.11a/g). The dominant
    // legitimate allocations left are the amortised growth of the per-bin sample
    // stores and KDE buffers — a handful of reallocs, not O(bins) temporaries. The
    // pre-refactor path allocated ≥ 4 temporaries per bin per refit (two axis
    // collects for selection plus a fresh sample copy per KDE, and two more inside
    // `ProductKde2d::update`), i.e. > 200 allocations per update; the bound here
    // fails if even half of that comes back.
    let e = OfdmEngine::new(OfdmParams::ieee80211ag());
    let reference = preamble::ltf_bins(e.params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut preamble_segments = |p: usize| -> SymbolSegments {
        let rows: Vec<Vec<Complex>> = (0..p)
            .map(|_| {
                reference
                    .iter()
                    .map(|r| {
                        if r.norm_sqr() == 0.0 {
                            Complex::zero()
                        } else {
                            *r + Complex::from_polar(
                                rng.gen_range(0.0..0.6),
                                rng.gen_range(-3.1..3.1),
                            )
                        }
                    })
                    .collect()
            })
            .collect();
        SymbolSegments::from_rows(rows)
    };
    let first = preamble_segments(9);
    let mut model = InterferenceModel::train(
        &e,
        std::slice::from_ref(&first),
        std::slice::from_ref(&reference),
        CpRecycleConfig::default(),
    )
    .unwrap();
    // Warm-up update: grows sample stores, KDE buffers and the shared sort scratch.
    model.update(&e, &preamble_segments(9), &reference).unwrap();

    let next = preamble_segments(9);
    let during = allocations_during(|| model.update(&e, &next, &reference).unwrap());
    assert!(
        during <= 110,
        "model update allocated {during} times — per-bin temporaries are back?"
    );
}

#[test]
fn warm_leave_one_out_selection_is_allocation_free() {
    // The certified leave-one-out selector screens every grid factor out of the
    // caller's scratch and, where the screen cannot decide, rescores factors
    // exactly in the same scratch: once it has held the largest set's `13·n`
    // entries, neither path allocates.
    use rfdsp::kde::{select_bandwidth_scratch, select_leave_one_out, BandwidthSelector};

    let smooth = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| 0.3 * (i as f64 * 1.7).sin() + if i % 3 == 0 { 2.0 } else { 0.0 })
            .collect()
    };
    let mut with_inf = smooth(32);
    with_inf[7] = f64::INFINITY;
    let mut scratch = Vec::new();
    select_bandwidth_scratch(&smooth(80), BandwidthSelector::LeaveOneOut, &mut scratch).unwrap();
    for (samples, exact) in [
        (smooth(32), 0),
        (smooth(80), 0),
        (smooth(3), 0),
        (with_inf, 9),
    ] {
        let mut selected = (0.0, usize::MAX);
        let during = allocations_during(|| {
            selected = select_leave_one_out(&samples, &mut scratch).unwrap();
        });
        assert_eq!(selected.1, exact, "n = {}: unexpected path", samples.len());
        assert_eq!(
            during,
            0,
            "warm LOO selection (n = {}, {exact} exact) allocated {during} times",
            samples.len()
        );
    }
}

/// One error vector of a two-cluster interference model: small positive noise,
/// plus an amplitude-≈3 vector at phase ≈ π/2 when `interfered`.
fn clustered_error(rng: &mut rand::rngs::StdRng, interfered: bool) -> Complex {
    let noise = Complex::new(rng.gen_range(0.0..0.02), rng.gen_range(0.0..0.02));
    if interfered {
        noise + Complex::from_polar(rng.gen_range(2.9..3.1), rng.gen_range(1.5..1.7))
    } else {
        noise
    }
}

#[test]
fn sphere_decide_is_allocation_free_after_warmup() {
    // The `sphere_ml` module promises a search with no heap allocation once the
    // scratch is warm: enumeration, the error-vector, amplitude and phase planes,
    // both stages' bounds and floors, and the branch-and-bound scoring. A
    // two-cluster model (three clean preamble segments, three hit by an
    // amplitude-≈3 vector) certifies bins whose observations come from its
    // clusters and must search bins hit from other directions, so both paths run.
    let e = OfdmEngine::new(OfdmParams::ieee80211ag());
    let bin = e.params().data_bins()[10];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);
    let reference: Vec<Complex> = (0..64)
        .map(|b| {
            if e.params().occupied_bins().contains(&b) {
                Complex::new(1.0, 0.0)
            } else {
                Complex::zero()
            }
        })
        .collect();
    let rows: Vec<Vec<Complex>> = (0..6)
        .map(|row| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + clustered_error(&mut rng, row >= 3)
                    }
                })
                .collect()
        })
        .collect();
    let model = InterferenceModel::train(
        &e,
        &[SymbolSegments::from_rows(rows)],
        &[reference],
        CpRecycleConfig::default(),
    )
    .unwrap();
    let modulation = Modulation::Qam16;
    let decoder = FixedSphereMlDecoder::new(&model, modulation, 2.0);
    let points = modulation.points();
    // 1200 observation sets of P = 16, built before counting: every other one
    // from the model's clusters, the rest hit at arbitrary phases.
    let sets: Vec<Vec<Complex>> = (0..1200)
        .map(|i| {
            let tx = points[rng.gen_range(0..points.len())];
            (0..16)
                .map(|_| {
                    let error = if i % 2 == 0 {
                        let interfered = rng.gen_range(0..3) == 0;
                        clustered_error(&mut rng, interfered)
                    } else {
                        Complex::from_polar(rng.gen_range(0.0..0.8), rng.gen_range(-3.1..3.1))
                    };
                    tx + error
                })
                .collect()
        })
        .collect();
    let mut scratch = DecoderScratch::new();
    // Warm-up: the same sets, so every plane reaches its largest size.
    for obs in &sets {
        decoder.decide(bin, obs, &mut scratch);
    }
    scratch.take_search_counts();
    let mut decided = vec![0u16; sets.len()];
    let during = allocations_during(|| {
        for (obs, d) in sets.iter().zip(&mut decided) {
            *d = decoder.decide(bin, obs, &mut scratch);
        }
    });
    let counts = scratch.take_search_counts();
    assert_eq!(during, 0, "warm sphere decisions allocated {during} times");
    assert!(counts.certified > 0, "no bin certified: {counts:?}");
    assert!(counts.queries_scored > 0, "no bin searched: {counts:?}");
    assert!(counts.candidates > sets.len() as u64, "{counts:?}");
}
