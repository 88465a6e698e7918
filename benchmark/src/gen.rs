//! Seeded input generation. The same `--seed` gives the same inputs;
//! the program under test only ever sees the generated items, and the
//! sinks recompute each item from `(seed, seq)` to verify what arrived.

use infopipes::PayloadBytes;
use media::{CompressedFrame, FrameType, Packet};

/// One step of SplitMix64: a bijective 64-bit mix, so distinct inputs
/// never collide.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `seq`-th value of the stream keyed by `seed`.
pub fn value(seed: u64, seq: u64) -> u64 {
    mix(mix(seed) ^ seq)
}

/// What the `chain_*` folding stage does to each value.
pub fn fold(x: u64) -> u64 {
    x.rotate_left(13) ^ 0xA5A5_5A5A_C3C3_3C3C
}

const ARENA_BYTES: usize = 1 << 20;

/// Frame sizes of the `remote_tcp` stream, drawn uniformly per frame.
pub const FRAME_SIZES: [usize; 3] = [2 << 10, 8 << 10, 32 << 10];

/// Payload size of a `remote_inproc` packet.
pub const PACKET_BYTES: usize = 256;

/// Seeded body of a 4 KiB `fanout_inproc` frame, after its 8-byte
/// sequence number.
pub const FANOUT_BODY: usize = 4096 - 8;

/// One seeded mebibyte that every payload is a window of. Building an
/// item is then a refcounted slice — the generator costs the producer
/// nothing per byte — and verifying one is a `memcmp` against the same
/// window.
#[derive(Clone)]
pub struct Arena {
    seed: u64,
    bytes: PayloadBytes,
}

impl Arena {
    pub fn new(seed: u64) -> Arena {
        let mut bytes = Vec::with_capacity(ARENA_BYTES);
        let mut i = 0u64;
        while bytes.len() < ARENA_BYTES {
            bytes.extend_from_slice(&value(seed ^ 0xA7E7A, i).to_le_bytes());
            i += 1;
        }
        Arena {
            seed,
            bytes: PayloadBytes::from_vec(bytes),
        }
    }

    /// The payload of item `seq`: `len` bytes at a seeded offset.
    pub fn window(&self, seq: u64, len: usize) -> PayloadBytes {
        let span = (ARENA_BYTES - len) as u64;
        let off = (value(self.seed, seq) % span) as usize;
        self.bytes.slice(off..off + len)
    }

    /// Size of frame `seq` of the `remote_tcp` stream.
    pub fn frame_size(&self, seq: u64) -> usize {
        FRAME_SIZES[(value(self.seed ^ 0x512E, seq) % 3) as usize]
    }

    /// Packet `seq` of the `remote_inproc` stream.
    pub fn packet(&self, seq: u64) -> Packet {
        Packet {
            frame_seq: seq,
            index: 0,
            count: 1,
            ftype: FrameType::P,
            pts_us: seq,
            bytes: self.window(seq, PACKET_BYTES),
        }
    }

    /// Frame `seq` of the `remote_tcp` stream.
    pub fn frame(&self, seq: u64) -> CompressedFrame {
        CompressedFrame {
            seq,
            pts_us: seq * 1000,
            ftype: match seq % 12 {
                0 => FrameType::I,
                3 | 6 | 9 => FrameType::P,
                _ => FrameType::B,
            },
            data: self.window(seq, self.frame_size(seq)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (Arena::new(1), Arena::new(1), Arena::new(2));
        for seq in [0, 1, 63, 64, 1_000_003] {
            assert_eq!(a.packet(seq), b.packet(seq));
            assert_eq!(a.frame(seq), b.frame(seq));
            assert_eq!(value(1, seq), value(1, seq));
        }
        assert_ne!(a.packet(5).bytes, c.packet(5).bytes);
        assert_ne!(value(1, 5), value(2, 5));
    }

    #[test]
    fn frames_use_all_three_sizes() {
        let arena = Arena::new(7);
        let mut seen = [false; 3];
        for seq in 0..64 {
            let size = arena.frame(seq).data.len();
            seen[FRAME_SIZES.iter().position(|&s| s == size).unwrap()] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
