//! Values storable directly in the paper's packed registers.
//!
//! The `value` field of [`crate::packed::TopWord`] / `SlotWord` /
//! `TailWord` is 32 bits; [`Bits32`] is the lossless encoding contract
//! for payloads stored there. `cso-stack` re-exports it as
//! `Bits32` and `cso-queue` as `QueueValue`.

/// A value that fits in the 32-bit `value` field of the paper's
/// packed registers (`TOP`, `STACK[x]`, `TAIL`; see [`crate::packed`]).
///
/// # Law
///
/// `from_bits(to_bits(v)) == v` for every `v` — the encoding must be
/// lossless. The property tests in this module check it for all
/// provided implementations.
///
/// A payload that does not fit (a box, a string, a struct) rides as a
/// `u32` index into storage the caller owns, the way
/// `examples/job_scheduler.rs` pushes job indices.
///
/// ```
/// use cso_memory::bits::Bits32;
/// assert_eq!(i32::from_bits((-5i32).to_bits()), -5);
/// ```
pub trait Bits32: Copy + Send + Sync + 'static {
    /// Encodes the value into the register's 32-bit payload field.
    fn to_bits(self) -> u32;

    /// Decodes a value previously produced by [`Bits32::to_bits`].
    fn from_bits(bits: u32) -> Self;
}

impl Bits32 for u32 {
    fn to_bits(self) -> u32 {
        self
    }

    fn from_bits(bits: u32) -> u32 {
        bits
    }
}

impl Bits32 for i32 {
    fn to_bits(self) -> u32 {
        self as u32
    }

    fn from_bits(bits: u32) -> i32 {
        bits as i32
    }
}

impl Bits32 for u16 {
    fn to_bits(self) -> u32 {
        u32::from(self)
    }

    fn from_bits(bits: u32) -> u16 {
        bits as u16
    }
}

impl Bits32 for i16 {
    fn to_bits(self) -> u32 {
        self as u16 as u32
    }

    fn from_bits(bits: u32) -> i16 {
        bits as u16 as i16
    }
}

impl Bits32 for u8 {
    fn to_bits(self) -> u32 {
        u32::from(self)
    }

    fn from_bits(bits: u32) -> u8 {
        bits as u8
    }
}

impl Bits32 for i8 {
    fn to_bits(self) -> u32 {
        self as u8 as u32
    }

    fn from_bits(bits: u32) -> i8 {
        bits as u8 as i8
    }
}

impl Bits32 for bool {
    fn to_bits(self) -> u32 {
        u32::from(self)
    }

    fn from_bits(bits: u32) -> bool {
        bits != 0
    }
}

impl Bits32 for char {
    fn to_bits(self) -> u32 {
        self as u32
    }

    fn from_bits(bits: u32) -> char {
        // Bits produced by `to_bits` are always a valid scalar value;
        // tolerate foreign bits by mapping to the replacement char.
        char::from_u32(bits).unwrap_or(char::REPLACEMENT_CHARACTER)
    }
}

impl Bits32 for f32 {
    fn to_bits(self) -> u32 {
        f32::to_bits(self)
    }

    fn from_bits(bits: u32) -> f32 {
        f32::from_bits(bits)
    }
}

impl Bits32 for () {
    fn to_bits(self) -> u32 {
        0
    }

    fn from_bits(_bits: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips<V: Bits32 + PartialEq + std::fmt::Debug>(v: V) {
        assert_eq!(V::from_bits(v.to_bits()), v);
    }

    #[test]
    fn extremes_round_trip() {
        round_trips(u32::MAX);
        round_trips(i32::MIN);
        round_trips(i32::MAX);
        round_trips(u16::MAX);
        round_trips(i16::MIN);
        round_trips(u8::MAX);
        round_trips(i8::MIN);
        round_trips(true);
        round_trips(false);
        round_trips('\u{10FFFF}');
        round_trips(f32::NEG_INFINITY);
        round_trips(());
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let nan = f32::NAN;
        assert_eq!(
            f32::from_bits(Bits32::to_bits(nan)).to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn random_values_round_trip() {
        let mut rng = crate::backoff::XorShift64::new(0xB175);
        for _ in 0..2_000 {
            let raw = rng.next_u64() as u32;
            round_trips(raw);
            round_trips(raw as i32);
            round_trips(raw as u16 as i16);
            round_trips(raw as u8);
            if let Some(c) = char::from_u32(raw % 0x11_0000) {
                round_trips(c);
            }
            let f = f32::from_bits(raw);
            if !f.is_nan() {
                round_trips(f);
            }
        }
    }
}
