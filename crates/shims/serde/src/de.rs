//! Deserialization half of the serde data model (workspace subset).

use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Errors a [`Deserializer`] can produce.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a display-able message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be deserialized from any serde data format.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` with the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A value deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// A stateful `Deserialize` driver (here: stateless, via `PhantomData`).
pub trait DeserializeSeed<'de>: Sized {
    /// The produced value.
    type Value;
    /// Runs the deserialization.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

macro_rules! delegate_to_any {
    ($($(#[$doc:meta])* fn $method:ident;)*) => {$(
        $(#[$doc])*
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            self.deserialize_any(visitor)
        }
    )*};
}

/// A data format that can deserialize the serde data model.
///
/// Every `deserialize_*` hint defaults to [`deserialize_any`]
/// (self-describing formats need nothing else); non-self-describing
/// formats like the netpipe wire codec override each hint.
///
/// [`deserialize_any`]: Deserializer::deserialize_any
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// Deserializes whatever the input contains next.
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    delegate_to_any! {
        /// Expects a `bool`.
        fn deserialize_bool;
        /// Expects an `i8`.
        fn deserialize_i8;
        /// Expects an `i16`.
        fn deserialize_i16;
        /// Expects an `i32`.
        fn deserialize_i32;
        /// Expects an `i64`.
        fn deserialize_i64;
        /// Expects a `u8`.
        fn deserialize_u8;
        /// Expects a `u16`.
        fn deserialize_u16;
        /// Expects a `u32`.
        fn deserialize_u32;
        /// Expects a `u64`.
        fn deserialize_u64;
        /// Expects an `f32`.
        fn deserialize_f32;
        /// Expects an `f64`.
        fn deserialize_f64;
        /// Expects a `char`.
        fn deserialize_char;
        /// Expects a string slice.
        fn deserialize_str;
        /// Expects an owned string.
        fn deserialize_string;
        /// Expects raw bytes.
        fn deserialize_bytes;
        /// Expects an owned byte buffer.
        fn deserialize_byte_buf;
        /// Expects an option.
        fn deserialize_option;
        /// Expects `()`.
        fn deserialize_unit;
        /// Expects a sequence.
        fn deserialize_seq;
        /// Expects a map.
        fn deserialize_map;
        /// Expects a field or variant identifier.
        fn deserialize_identifier;
        /// Skips a value.
        fn deserialize_ignored_any;
    }

    /// Expects a unit struct.
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Expects a newtype struct.
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Expects a tuple of known arity.
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Expects a tuple struct.
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Expects a struct with the named fields.
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Expects an enum with the named variants.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }

    /// Whether the format is human readable.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// Drives construction of one value from deserializer callbacks.
pub trait Visitor<'de>: Sized {
    /// The constructed value.
    type Value;

    /// Describes what this visitor expects, for error messages.
    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Receives a `bool`.
    fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("bool", &self)))
    }

    /// Receives an `i8`.
    fn visit_i8<E: Error>(self, v: i8) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }

    /// Receives an `i16`.
    fn visit_i16<E: Error>(self, v: i16) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }

    /// Receives an `i32`.
    fn visit_i32<E: Error>(self, v: i32) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }

    /// Receives an `i64`.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("i64", &self)))
    }

    /// Receives a `u8`.
    fn visit_u8<E: Error>(self, v: u8) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }

    /// Receives a `u16`.
    fn visit_u16<E: Error>(self, v: u16) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }

    /// Receives a `u32`.
    fn visit_u32<E: Error>(self, v: u32) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }

    /// Receives a `u64`.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("u64", &self)))
    }

    /// Receives an `f32`.
    fn visit_f32<E: Error>(self, v: f32) -> Result<Self::Value, E> {
        self.visit_f64(f64::from(v))
    }

    /// Receives an `f64`.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("f64", &self)))
    }

    /// Receives a `char`.
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("char", &self)))
    }

    /// Receives a string slice.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("string", &self)))
    }

    /// Receives a string borrowed from the input.
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    /// Receives an owned string.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    /// Receives a byte slice.
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::custom(Unexpected("bytes", &self)))
    }

    /// Receives bytes borrowed from the input.
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    /// Receives an owned byte buffer.
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    /// Receives `None`.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(Unexpected("none", &self)))
    }

    /// Receives `Some`; the inner value is behind the deserializer.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(D::Error::custom(Unexpected("some", &self)))
    }

    /// Receives `()`.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(Unexpected("unit", &self)))
    }

    /// Receives a newtype struct's inner value.
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(D::Error::custom(Unexpected("newtype struct", &self)))
    }

    /// Receives a sequence.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(A::Error::custom(Unexpected("sequence", &self)))
    }

    /// Receives a map.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(A::Error::custom(Unexpected("map", &self)))
    }

    /// Receives an enum.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(A::Error::custom(Unexpected("enum", &self)))
    }
}

/// "invalid type: got X, expected Y" message helper.
struct Unexpected<'a, V>(&'a str, &'a V);

impl<'de, V: Visitor<'de>> Display for Unexpected<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Expecting<'b, V2>(&'b V2);
        impl<'de2, V2: Visitor<'de2>> Display for Expecting<'_, V2> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.expecting(f)
            }
        }
        write!(
            f,
            "invalid type: {}, expected {}",
            self.0,
            Expecting(self.1)
        )
    }
}

/// Access to the elements of a sequence.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;

    /// Deserializes the next element through a seed.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// Deserializes the next element.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// Remaining element count, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the entries of a map.
pub trait MapAccess<'de> {
    /// Error type.
    type Error: Error;

    /// Deserializes the next key through a seed.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// Deserializes the value paired with the last key.
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    /// Deserializes the next key.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// Deserializes the next value.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// Remaining entry count, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the variant tag of an enum.
pub trait EnumAccess<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// Accessor for the variant payload.
    type Variant: VariantAccess<'de, Error = Self::Error>;

    /// Deserializes the variant tag through a seed.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    /// Deserializes the variant tag.
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the payload of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// The variant has no payload.
    fn unit_variant(self) -> Result<(), Self::Error>;

    /// Deserializes a newtype variant's payload through a seed.
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    /// Deserializes a newtype variant's payload.
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    /// Deserializes a tuple variant's payload.
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    /// Deserializes a struct variant's payload.
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

// ---------------------------------------------------------------------
// IntoDeserializer (used by wire codecs to decode enum variant indices)
// ---------------------------------------------------------------------

/// Conversion of a primitive into a trivial deserializer over itself.
pub trait IntoDeserializer<'de, E: Error> {
    /// The deserializer produced.
    type Deserializer: Deserializer<'de, Error = E>;
    /// Performs the conversion.
    fn into_deserializer(self) -> Self::Deserializer;
}

/// A deserializer holding one `u32` (typically an enum variant index).
pub struct U32Deserializer<E> {
    value: u32,
    marker: PhantomData<E>,
}

impl<'de, E: Error> Deserializer<'de> for U32Deserializer<E> {
    type Error = E;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_u32(self.value)
    }
}

impl<'de, E: Error> IntoDeserializer<'de, E> for u32 {
    type Deserializer = U32Deserializer<E>;

    fn into_deserializer(self) -> U32Deserializer<E> {
        U32Deserializer {
            value: self,
            marker: PhantomData,
        }
    }
}

/// A `DeserializeSeed` producing an enum's `u32` variant index, used by
/// derived `Deserialize` impls via `deserialize_identifier`.
pub struct VariantIndexSeed;

impl<'de> DeserializeSeed<'de> for VariantIndexSeed {
    type Value = u32;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<u32, D::Error> {
        struct IndexVisitor;
        impl<'de2> Visitor<'de2> for IndexVisitor {
            type Value = u32;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a variant index")
            }

            fn visit_u32<E: Error>(self, v: u32) -> Result<u32, E> {
                Ok(v)
            }

            fn visit_u64<E: Error>(self, v: u64) -> Result<u32, E> {
                u32::try_from(v).map_err(|_| E::custom("variant index exceeds u32"))
            }
        }
        deserializer.deserialize_identifier(IndexVisitor)
    }
}

// ---------------------------------------------------------------------
// Deserialize impls for primitives and std containers
// ---------------------------------------------------------------------

macro_rules! primitive_deserialize {
    ($($ty:ty => ($method:ident, $visit:ident, $expect:literal)),* $(,)?) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct PrimitiveVisitor;
                impl<'de2> Visitor<'de2> for PrimitiveVisitor {
                    type Value = $ty;

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str($expect)
                    }

                    fn $visit<E: Error>(self, v: $ty) -> Result<$ty, E> {
                        Ok(v)
                    }
                }
                deserializer.$method(PrimitiveVisitor)
            }
        }
    )*};
}

primitive_deserialize! {
    bool => (deserialize_bool, visit_bool, "a bool"),
    i8 => (deserialize_i8, visit_i8, "an i8"),
    i16 => (deserialize_i16, visit_i16, "an i16"),
    i32 => (deserialize_i32, visit_i32, "an i32"),
    i64 => (deserialize_i64, visit_i64, "an i64"),
    u8 => (deserialize_u8, visit_u8, "a u8"),
    u16 => (deserialize_u16, visit_u16, "a u16"),
    u32 => (deserialize_u32, visit_u32, "a u32"),
    u64 => (deserialize_u64, visit_u64, "a u64"),
    f32 => (deserialize_f32, visit_f32, "an f32"),
    f64 => (deserialize_f64, visit_f64, "an f64"),
    char => (deserialize_char, visit_char, "a char"),
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = u64::deserialize(deserializer)?;
        usize::try_from(v).map_err(|_| D::Error::custom("usize overflow"))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StringVisitor;
        impl<'de2> Visitor<'de2> for StringVisitor {
            type Value = String;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }

            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }

            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_string(StringVisitor)
    }
}

/// A fresh, unshared `Arc<str>` (real serde: `rc`).
impl<'de> Deserialize<'de> for std::sync::Arc<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;
        impl<'de2> Visitor<'de2> for UnitVisitor {
            type Value = ();

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }

            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de2, T2: Deserialize<'de2>> Visitor<'de2> for OptionVisitor<T2> {
            type Value = Option<T2>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an option")
            }

            fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
                Ok(None)
            }

            fn visit_some<D2: Deserializer<'de2>>(
                self,
                deserializer: D2,
            ) -> Result<Self::Value, D2::Error> {
                T2::deserialize(deserializer).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct VecVisitor<T>(PhantomData<T>);
        impl<'de2, T2: Deserialize<'de2>> Visitor<'de2> for VecVisitor<T2> {
            type Value = Vec<T2>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence")
            }

            fn visit_seq<A: SeqAccess<'de2>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
                while let Some(item) = seq.next_element()? {
                    out.push(item);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_seq(VecVisitor(PhantomData))
    }
}

impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V>(PhantomData<(K, V)>);
        impl<'de2, K2, V2> Visitor<'de2> for MapVisitor<K2, V2>
        where
            K2: Deserialize<'de2> + Ord,
            V2: Deserialize<'de2>,
        {
            type Value = std::collections::BTreeMap<K2, V2>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }

            fn visit_map<A: MapAccess<'de2>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = std::collections::BTreeMap::new();
                while let Some(key) = map.next_key()? {
                    let value = map.next_value()?;
                    out.insert(key, value);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

macro_rules! tuple_deserialize {
    ($(($($name:ident),+) => $len:expr;)*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);
                impl<'de2, $($name: Deserialize<'de2>),+> Visitor<'de2> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of arity {}", $len)
                    }

                    #[allow(non_snake_case)]
                    fn visit_seq<ACC: SeqAccess<'de2>>(
                        self,
                        mut seq: ACC,
                    ) -> Result<Self::Value, ACC::Error> {
                        $(
                            let $name = seq
                                .next_element()?
                                .ok_or_else(|| ACC::Error::custom("tuple too short"))?;
                        )+
                        Ok(($($name,)+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )*};
}

tuple_deserialize! {
    (T0) => 1;
    (T0, T1) => 2;
    (T0, T1, T2) => 3;
    (T0, T1, T2, T3) => 4;
    (T0, T1, T2, T3, T4) => 5;
    (T0, T1, T2, T3, T4, T5) => 6;
}
