//! Seeded inputs. The program never sees the harness seed, only what is
//! generated from it here: stripe bytes, storm seeds, spec seeds.

use rpr_codec::StripeCodec;
use rpr_faults::SplitMix64;

/// Fill `buf` with the generator's stream, eight bytes per draw — fast
/// enough (GB/s) that stripe set-up time is `encode_stripe`, not the RNG.
pub fn fill(rng: &mut SplitMix64, buf: &mut [u8]) {
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = rng.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// `n` data blocks of `block_bytes` seeded bytes.
pub fn data_blocks(seed: u64, n: usize, block_bytes: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut b = vec![0u8; block_bytes];
            fill(&mut rng, &mut b);
            b
        })
        .collect()
}

/// A full encoded stripe (data then parity) over seeded data blocks.
pub fn stripe(codec: &StripeCodec, seed: u64, block_bytes: usize) -> Vec<Vec<u8>> {
    let data = data_blocks(seed, codec.params().n, block_bytes);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    codec.encode_stripe(&refs)
}

/// The `i`-th seed derived from the harness seed for purpose `salt`.
pub fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    let mix = |x: u64| SplitMix64::new(x).next_u64();
    mix(mix(mix(seed) ^ salt) ^ i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_codec::CodeParams;

    #[test]
    fn same_seed_same_inputs_different_seed_different_bytes() {
        let codec = StripeCodec::new(CodeParams::new(6, 3));
        let a = stripe(&codec, 17, 4099);
        let b = stripe(&codec, 17, 4099);
        let c = stripe(&codec, 18, 4099);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
        assert!(a.iter().all(|blk| blk.len() == 4099));
        assert_ne!(a[0], c[0]);
        assert_ne!(a[8], c[8], "parity follows the data");
        assert_eq!(derive(17, 3, 2), derive(17, 3, 2));
        assert_ne!(derive(17, 3, 2), derive(17, 3, 1));
        assert_ne!(derive(17, 3, 2), derive(18, 3, 2));
    }

    #[test]
    fn fill_covers_a_ragged_tail() {
        let mut rng = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        fill(&mut rng, &mut buf);
        assert!(buf[8..].iter().any(|&b| b != 0));
    }
}
