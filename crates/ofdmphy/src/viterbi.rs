//! Hard-decision Viterbi decoding of the 802.11 convolutional code.
//!
//! The decoder operates on the depunctured coded stream (erasures from puncturing are
//! simply skipped in the branch metric) and performs a full traceback.
//!
//! # The butterfly add-compare-select
//!
//! The rate-1/2 mother code shifts one input bit into a 6-bit register, so successor
//! state `n` has exactly two predecessors — `2·(n mod 32)` and `2·(n mod 32) + 1` —
//! and the input bit that reaches `n` is `n div 32` (the state's MSB). The inner loop
//! exploits this: path metrics live in fixed `[u32; 64]` arrays, each step
//! deinterleaves them into even/odd predecessor planes and runs a **branchless
//! butterfly** over 32 lanes per input bit. Branch costs are computed arithmetically
//! from precomputed output-bit planes (`(output ^ observed) & mask`, with `mask = 0`
//! erasing punctured positions), and the compare-select is a `<` + conditional move —
//! no data-dependent branches anywhere, so LLVM unrolls and vectorizes the step.
//!
//! The decoder owns its traceback scratch (back-pointer matrix, depuncture buffer)
//! behind a mutex, so repeated decodes through `&self` perform **zero heap
//! allocations** after the first frame of a given size ([`ViterbiDecoder::decode_into`]
//! is the fully allocation-free entry point; the counting-allocator test in
//! `crates/core/tests/model_alloc.rs` pins this). A straightforward scalar
//! implementation is kept in the test module as the reference the butterfly is pinned
//! against, decision-for-decision.

use crate::convcode::{depuncture_into, CodeRate, G0, G1, NUM_STATES};
use crate::{PhyError, Result};
use std::sync::Mutex;

/// Half the state count — the number of butterfly lanes per input bit.
const HALF_STATES: usize = NUM_STATES / 2;

/// Path-metric "infinity": large enough to never be caught by a real path (branch
/// costs are ≤ 2 per step), small enough that accumulating further costs on top of it
/// cannot wrap a `u32`.
const INFINITY: u32 = u32::MAX / 2;

/// Precomputed trellis description.
///
/// `outputs` / `next` are the classic per-`(state, input_bit)` tables (fixed arrays —
/// no heap); the four plane pairs below are the same output bits rearranged for the
/// butterfly: plane `[bit][i]` holds the coded output of predecessor `2i` (even) or
/// `2i + 1` (odd) under input `bit`, which is exactly the operand order the
/// add-compare-select consumes.
#[derive(Debug, Clone)]
struct Trellis {
    /// `outputs[state][bit] = (a, b)` coded bits. Consumed (beyond plane
    /// construction) only by the scalar reference decoder in the test module.
    #[cfg_attr(not(test), allow(dead_code))]
    outputs: [[(u8, u8); 2]; NUM_STATES],
    /// `next[state][bit]` successor state — same test-only consumer.
    #[cfg_attr(not(test), allow(dead_code))]
    next: [[usize; 2]; NUM_STATES],
    /// First coded bit of even predecessors: `a_even[bit][i]` = A-output of `(2i, bit)`.
    a_even: [[u8; HALF_STATES]; 2],
    /// Second coded bit of even predecessors.
    b_even: [[u8; HALF_STATES]; 2],
    /// First coded bit of odd predecessors: `a_odd[bit][i]` = A-output of `(2i+1, bit)`.
    a_odd: [[u8; HALF_STATES]; 2],
    /// Second coded bit of odd predecessors.
    b_odd: [[u8; HALF_STATES]; 2],
}

impl Trellis {
    fn new() -> Self {
        let mut outputs = [[(0u8, 0u8); 2]; NUM_STATES];
        let mut next = [[0usize; 2]; NUM_STATES];
        for (state, (out, nxt)) in outputs.iter_mut().zip(next.iter_mut()).enumerate() {
            for bit in 0..2usize {
                let reg = ((bit as u32) << 6) | state as u32;
                let a = (reg & G0 as u32).count_ones() as u8 & 1;
                let b = (reg & G1 as u32).count_ones() as u8 & 1;
                out[bit] = (a, b);
                nxt[bit] = ((reg >> 1) & 0x3F) as usize;
            }
        }
        let mut a_even = [[0u8; HALF_STATES]; 2];
        let mut b_even = [[0u8; HALF_STATES]; 2];
        let mut a_odd = [[0u8; HALF_STATES]; 2];
        let mut b_odd = [[0u8; HALF_STATES]; 2];
        for bit in 0..2usize {
            for i in 0..HALF_STATES {
                let (ae, be) = outputs[2 * i][bit];
                let (ao, bo) = outputs[2 * i + 1][bit];
                a_even[bit][i] = ae;
                b_even[bit][i] = be;
                a_odd[bit][i] = ao;
                b_odd[bit][i] = bo;
            }
        }
        Trellis {
            outputs,
            next,
            a_even,
            b_even,
            a_odd,
            b_odd,
        }
    }
}

/// Reusable per-decode buffers: sized on the first frame, then stable — the capacity
/// plateaus at the longest frame decoded, and every later decode of that size (or
/// smaller) allocates nothing.
#[derive(Debug, Default)]
struct ViterbiScratch {
    /// Depunctured stream, refilled per [`ViterbiDecoder::decode_into`] call.
    depunctured: Vec<Option<u8>>,
    /// Flat back-pointer matrix, `num_steps × NUM_STATES`.
    back_pointers: Vec<u8>,
}

/// A hard-decision Viterbi decoder for the 802.11 rate-1/2 mother code with optional
/// puncturing.
#[derive(Debug)]
pub struct ViterbiDecoder {
    trellis: Trellis,
    /// Owned scratch behind a mutex so decoding stays `&self` (the receivers store the
    /// decoder in shared structs) without per-call allocation; contention is nil — one
    /// decode holds the lock at a time per decoder instance.
    scratch: Mutex<ViterbiScratch>,
}

impl Default for ViterbiDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for ViterbiDecoder {
    fn clone(&self) -> Self {
        // Scratch is pure cache — a clone starts cold with the same trellis.
        ViterbiDecoder {
            trellis: self.trellis.clone(),
            scratch: Mutex::new(ViterbiScratch::default()),
        }
    }
}

impl ViterbiDecoder {
    /// Creates a decoder (precomputes the trellis).
    pub fn new() -> Self {
        ViterbiDecoder {
            trellis: Trellis::new(),
            scratch: Mutex::new(ViterbiScratch::default()),
        }
    }

    /// Decodes a punctured hard-bit stream at the given code rate.
    ///
    /// The decoder assumes the encoder started in the all-zero state (true for 802.11,
    /// where the scrambled SERVICE field is preceded by a reset encoder) and ends the
    /// traceback at the best final state; if the caller appended the standard six zero
    /// tail bits the final state is the all-zero state and the tail should be stripped
    /// from the returned bits by the caller.
    pub fn decode(&self, received: &[u8], rate: CodeRate) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decode_into(received, rate, &mut out)?;
        Ok(out)
    }

    /// [`decode`](Self::decode) into a caller-owned buffer (cleared first) — with a
    /// warmed-up output buffer this path performs no heap allocation at all.
    pub fn decode_into(&self, received: &[u8], rate: CodeRate, out: &mut Vec<u8>) -> Result<()> {
        if received.iter().any(|b| *b > 1) {
            return Err(PhyError::invalid("received", "bit values must be 0 or 1"));
        }
        let mut scratch = self.scratch.lock().expect("viterbi scratch poisoned");
        let ViterbiScratch {
            depunctured,
            back_pointers,
        } = &mut *scratch;
        depuncture_into(received, rate, depunctured);
        decode_core(&self.trellis, depunctured, back_pointers, out)
    }
}

/// The butterfly forward pass + traceback. Decisions are identical to the classic
/// per-state scalar loop (kept as `decode_reference` in the test module): for every
/// successor the even predecessor is considered first and the odd one replaces it only
/// on a strictly smaller metric, matching the scalar loop's ascending state order with
/// strict `<` — so ties break the same way, bit for bit.
fn decode_core(
    trellis: &Trellis,
    coded: &[Option<u8>],
    back_pointers: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> Result<()> {
    if coded.len() < 2 {
        return Err(PhyError::InsufficientSamples {
            needed: 2,
            available: coded.len(),
        });
    }
    let num_steps = coded.len() / 2;
    let mut metrics = [INFINITY; NUM_STATES];
    metrics[0] = 0;
    back_pointers.clear();
    back_pointers.resize(num_steps * NUM_STATES, 0);

    let mut even = [0u32; HALF_STATES];
    let mut odd = [0u32; HALF_STATES];
    for (step, bp) in back_pointers.chunks_exact_mut(NUM_STATES).enumerate() {
        // Observation masks: an erasure zeroes the mask, erasing that output bit's
        // cost contribution arithmetically instead of with a branch.
        let (oa, ma) = match coded[2 * step] {
            Some(v) => (v, 1u8),
            None => (0, 0),
        };
        let (ob, mb) = match coded.get(2 * step + 1).copied().flatten() {
            Some(v) => (v, 1u8),
            None => (0, 0),
        };
        // Deinterleave predecessors: even[i] = state 2i, odd[i] = state 2i + 1.
        for i in 0..HALF_STATES {
            even[i] = metrics[2 * i];
            odd[i] = metrics[2 * i + 1];
        }
        let mut new_metrics = [0u32; NUM_STATES];
        for bit in 0..2usize {
            let ae = &trellis.a_even[bit];
            let be = &trellis.b_even[bit];
            let ao = &trellis.a_odd[bit];
            let bo = &trellis.b_odd[bit];
            let base = bit * HALF_STATES;
            for i in 0..HALF_STATES {
                let cost_even = (((ae[i] ^ oa) & ma) + ((be[i] ^ ob) & mb)) as u32;
                let cost_odd = (((ao[i] ^ oa) & ma) + ((bo[i] ^ ob) & mb)) as u32;
                let c0 = even[i] + cost_even;
                let c1 = odd[i] + cost_odd;
                let take1 = (c1 < c0) as u8;
                new_metrics[base + i] = if take1 != 0 { c1 } else { c0 };
                // The input bit is recoverable from the next state (it is the MSB of
                // the 6-bit state), so the record only needs the predecessor's low
                // state bit that was shifted out, plus the input bit.
                bp[base + i] = take1 | ((bit as u8) << 1);
            }
        }
        metrics = new_metrics;
    }

    // Traceback from the best final state (first minimum wins, as before).
    let mut state = 0usize;
    let mut best = metrics[0];
    for (s, &m) in metrics.iter().enumerate().skip(1) {
        if m < best {
            best = m;
            state = s;
        }
    }
    out.clear();
    out.resize(num_steps, 0);
    for step in (0..num_steps).rev() {
        let record = back_pointers[step * NUM_STATES + state];
        out[step] = (record >> 1) & 1;
        // Previous state: remove the input bit from the MSB and restore the bit that
        // was shifted out at the LSB end.
        state = ((state << 1) | (record & 1) as usize) & 0x3F;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convcode::{encode, encode_rate_half};
    use rand::{Rng, SeedableRng};

    /// The pre-butterfly scalar decoder, kept verbatim as the equivalence reference:
    /// per-state iteration in ascending order, strict `<` compare, skip of
    /// unreachable states.
    fn decode_reference(trellis: &Trellis, coded: &[Option<u8>]) -> Result<Vec<u8>> {
        if coded.len() < 2 {
            return Err(PhyError::InsufficientSamples {
                needed: 2,
                available: coded.len(),
            });
        }
        let num_steps = coded.len() / 2;
        let infinity = u32::MAX / 2;
        let mut metrics = vec![infinity; NUM_STATES];
        metrics[0] = 0;
        let mut back_pointers = vec![[0u8; NUM_STATES]; num_steps];
        let mut new_metrics = vec![infinity; NUM_STATES];
        for step in 0..num_steps {
            let obs_a = coded[2 * step];
            let obs_b = coded.get(2 * step + 1).copied().flatten();
            new_metrics.iter_mut().for_each(|m| *m = infinity);
            let mut best_prev = [0u8; NUM_STATES];
            for (state, &metric) in metrics.iter().enumerate() {
                if metric >= infinity {
                    continue;
                }
                for bit in 0..2usize {
                    let (a, b) = trellis.outputs[state][bit];
                    let next = trellis.next[state][bit];
                    let mut branch = 0u32;
                    if let Some(oa) = obs_a {
                        branch += (oa != a) as u32;
                    }
                    if let Some(ob) = obs_b {
                        branch += (ob != b) as u32;
                    }
                    let candidate = metric + branch;
                    if candidate < new_metrics[next] {
                        new_metrics[next] = candidate;
                        best_prev[next] = ((state & 1) as u8) | ((bit as u8) << 1);
                    }
                }
            }
            back_pointers[step] = best_prev;
            std::mem::swap(&mut metrics, &mut new_metrics);
        }
        let mut state = metrics
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| **m)
            .map(|(s, _)| s)
            .unwrap_or(0);
        let mut decoded = vec![0u8; num_steps];
        for step in (0..num_steps).rev() {
            let record = back_pointers[step][state];
            decoded[step] = (record >> 1) & 1;
            state = ((state << 1) | (record & 1) as usize) & 0x3F;
        }
        Ok(decoded)
    }

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    /// Appends the 802.11 tail of six zero bits so the trellis terminates.
    fn with_tail(mut bits: Vec<u8>) -> Vec<u8> {
        bits.extend_from_slice(&[0; 6]);
        bits
    }

    /// Runs the butterfly on a stream already aligned with the rate-1/2 trellis, where
    /// `None` marks an erasure — arbitrary erasure patterns, not just the puncturing
    /// ones [`ViterbiDecoder::decode_into`] produces.
    fn decode_erased(decoder: &ViterbiDecoder, coded: &[Option<u8>]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decode_core(&decoder.trellis, coded, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn butterfly_matches_the_scalar_reference_decision_for_decision() {
        // Random depunctured streams with erasures and heavy corruption — well past
        // the correction capability, so the decoders are compared on arbitrary
        // tie-laden metric landscapes, not just on "both recover the message".
        let decoder = ViterbiDecoder::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let steps = rng.gen_range(1..120usize);
            let coded: Vec<Option<u8>> = (0..2 * steps)
                .map(|_| match rng.gen_range(0..10u8) {
                    0..=2 => None,
                    b => Some(b & 1),
                })
                .collect();
            let fast = decode_erased(&decoder, &coded).unwrap();
            let slow = decode_reference(&decoder.trellis, &coded).unwrap();
            assert_eq!(fast, slow, "trial {trial} diverged");
        }
    }

    #[test]
    fn decode_into_reuses_caller_and_scratch_buffers() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(120, 8));
        let coded = encode_rate_half(&data).unwrap();
        let mut out = Vec::new();
        decoder
            .decode_into(&coded, CodeRate::Half, &mut out)
            .unwrap();
        assert_eq!(out, data);
        let capacity = out.capacity();
        decoder
            .decode_into(&coded, CodeRate::Half, &mut out)
            .unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), capacity, "output buffer must not regrow");
    }

    #[test]
    fn decodes_clean_rate_half() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(200, 1));
        let coded = encode_rate_half(&data).unwrap();
        let decoded = decoder.decode(&coded, CodeRate::Half).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn decodes_clean_punctured_rates() {
        let decoder = ViterbiDecoder::new();
        for rate in [CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let data = with_tail(random_bits(240, 2));
            let coded = encode(&data, rate).unwrap();
            let decoded = decoder.decode(&coded, rate).unwrap();
            assert_eq!(decoded, data, "rate {rate:?}");
        }
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(300, 3));
        let mut coded = encode_rate_half(&data).unwrap();
        // Flip well-separated bits — comfortably within the free distance budget.
        for idx in (0..coded.len()).step_by(47) {
            coded[idx] ^= 1;
        }
        let decoded = decoder.decode(&coded, CodeRate::Half).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn corrects_errors_in_punctured_stream() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(300, 4));
        let mut coded = encode(&data, CodeRate::ThreeQuarters).unwrap();
        for idx in (0..coded.len()).step_by(97) {
            coded[idx] ^= 1;
        }
        let decoded = decoder.decode(&coded, CodeRate::ThreeQuarters).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn heavy_corruption_causes_errors_but_not_panics() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(100, 5));
        let coded = encode_rate_half(&data).unwrap();
        // Invert every second bit — far beyond correction capability.
        let corrupted: Vec<u8> = coded
            .iter()
            .enumerate()
            .map(|(i, b)| if i % 2 == 0 { b ^ 1 } else { *b })
            .collect();
        let decoded = decoder.decode(&corrupted, CodeRate::Half).unwrap();
        assert_eq!(decoded.len(), data.len());
        let errors: usize = decoded.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert!(errors > 0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let decoder = ViterbiDecoder::new();
        assert!(decoder.decode(&[0, 1, 2, 0], CodeRate::Half).is_err());
        assert!(decoder.decode(&[], CodeRate::Half).is_err());
        assert!(decode_erased(&decoder, &[Some(1)]).is_err());
    }

    #[test]
    fn erasures_alone_decode_to_all_zero_path_consistently() {
        let decoder = ViterbiDecoder::new();
        // A fully erased stream has no evidence; the decoder must still return a valid
        // length without panicking.
        let erased = vec![None; 40];
        let decoded = decode_erased(&decoder, &erased).unwrap();
        assert_eq!(decoded.len(), 20);
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        let decoder = ViterbiDecoder::new();
        for data in [vec![0u8; 64], with_tail(vec![1u8; 58])] {
            let coded = encode_rate_half(&data).unwrap();
            assert_eq!(decoder.decode(&coded, CodeRate::Half).unwrap(), data);
        }
    }

    #[test]
    fn long_message_roundtrip() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(4000, 6));
        let coded = encode(&data, CodeRate::TwoThirds).unwrap();
        assert_eq!(decoder.decode(&coded, CodeRate::TwoThirds).unwrap(), data);
    }

    #[test]
    fn cloned_decoder_decodes_identically() {
        let decoder = ViterbiDecoder::new();
        let data = with_tail(random_bits(100, 7));
        let coded = encode_rate_half(&data).unwrap();
        // Warm the original's scratch, then clone (cold scratch, same trellis).
        let first = decoder.decode(&coded, CodeRate::Half).unwrap();
        let second = decoder.clone().decode(&coded, CodeRate::Half).unwrap();
        assert_eq!(first, second);
    }
}
