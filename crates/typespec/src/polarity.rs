//! Port polarity: the push/pull algebra of §2.3.
//!
//! Activity is represented by assigning each port a positive or negative
//! polarity: a positive out-port makes calls to `push`, a negative out-port
//! can receive a `pull`; a positive in-port makes calls to `pull`, a
//! negative in-port is willing to receive a `push`. Ports with opposite
//! polarity may be connected; connecting two ports of the same fixed
//! polarity is an error. Components without a fixed polarity (filters,
//! filter chains) are *polymorphic* (`α → α`): connecting one end to a
//! fixed port *induces* the complementary polarity at the other end.

use crate::error::TypeError;
use std::fmt;

/// The polarity of a port.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// The active side: this port makes calls (push for an out-port, pull
    /// for an in-port).
    Positive,
    /// The passive side: this port receives calls.
    Negative,
    /// Undetermined (`α`): acquires an induced polarity when connected to
    /// a fixed port.
    #[default]
    Polymorphic,
}

impl Polarity {
    /// The polarity that can legally face this one across a connection.
    /// Polymorphic is its own complement (two polymorphic ports compose,
    /// deferring resolution).
    #[must_use]
    pub fn complement(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
            Polarity::Polymorphic => Polarity::Polymorphic,
        }
    }

    /// Resolves the pair of polarities after connecting two ports,
    /// inducing fixed polarities into polymorphic ports.
    ///
    /// # Errors
    ///
    /// [`TypeError::PolarityClash`] when both ports have the same fixed
    /// polarity.
    pub fn unify(self, other: Polarity) -> Result<(Polarity, Polarity), TypeError> {
        match (self, other) {
            (Polarity::Positive, Polarity::Positive) | (Polarity::Negative, Polarity::Negative) => {
                Err(TypeError::PolarityClash(self, other))
            }
            (Polarity::Polymorphic, Polarity::Polymorphic) => {
                Ok((Polarity::Polymorphic, Polarity::Polymorphic))
            }
            (Polarity::Polymorphic, fixed) => Ok((fixed.complement(), fixed)),
            (fixed, Polarity::Polymorphic) => Ok((fixed, fixed.complement())),
            (a, b) => Ok((a, b)),
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Polarity::Positive => "+",
            Polarity::Negative => "-",
            Polarity::Polymorphic => "α",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_is_involutive_for_fixed() {
        assert_eq!(Polarity::Positive.complement(), Polarity::Negative);
        assert_eq!(Polarity::Negative.complement(), Polarity::Positive);
        assert_eq!(Polarity::Polymorphic.complement(), Polarity::Polymorphic);
        for p in [
            Polarity::Positive,
            Polarity::Negative,
            Polarity::Polymorphic,
        ] {
            assert_eq!(p.complement().complement(), p);
        }
    }

    #[test]
    fn opposite_fixed_polarities_connect() {
        assert!(Polarity::Positive.unify(Polarity::Negative).is_ok());
        assert!(Polarity::Negative.unify(Polarity::Positive).is_ok());
    }

    #[test]
    fn equal_fixed_polarities_clash() {
        assert!(Polarity::Positive.unify(Polarity::Positive).is_err());
        assert!(Polarity::Negative.unify(Polarity::Negative).is_err());
    }

    #[test]
    fn polymorphic_connects_to_everything() {
        for p in [
            Polarity::Positive,
            Polarity::Negative,
            Polarity::Polymorphic,
        ] {
            assert!(Polarity::Polymorphic.unify(p).is_ok());
            assert!(p.unify(Polarity::Polymorphic).is_ok());
        }
    }

    #[test]
    fn unify_induces_complement() {
        let (a, b) = Polarity::Polymorphic.unify(Polarity::Positive).unwrap();
        assert_eq!((a, b), (Polarity::Negative, Polarity::Positive));
        let (a, b) = Polarity::Negative.unify(Polarity::Polymorphic).unwrap();
        assert_eq!((a, b), (Polarity::Negative, Polarity::Positive));
        let (a, b) = Polarity::Polymorphic.unify(Polarity::Polymorphic).unwrap();
        assert_eq!((a, b), (Polarity::Polymorphic, Polarity::Polymorphic));
    }

    /// A polymorphic filter (`α → α`) connected to a fixed port acquires
    /// the complementary polarity at that end and, being in-out, exposes
    /// the imposed one at its other end, so a whole chain of them passes
    /// the driving direction along (§2.3, "induced polarity").
    #[test]
    fn induced_chain_propagates_direction() {
        for imposed in [Polarity::Positive, Polarity::Negative] {
            let mut out = imposed;
            for _ in 0..3 {
                let (_, filter_in) = out.unify(Polarity::Polymorphic).unwrap();
                assert_eq!(filter_in, imposed.complement());
                out = filter_in.complement();
            }
            assert_eq!(out, imposed);
        }
    }

    #[test]
    fn display_is_nonempty() {
        for p in [
            Polarity::Positive,
            Polarity::Negative,
            Polarity::Polymorphic,
        ] {
            assert!(!p.to_string().is_empty());
        }
    }
}
