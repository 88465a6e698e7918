//! A from-scratch binary wire format implementing `serde`'s
//! `Serializer`/`Deserializer`.
//!
//! The format is schema-driven (not self-describing), little-endian, and
//! deliberately simple — the marshalling filters of §2.4 need a compact,
//! deterministic encoding, not a general interchange format:
//!
//! | type            | encoding                                |
//! |-----------------|------------------------------------------|
//! | bool            | 1 byte (0/1)                             |
//! | iN / uN         | fixed-width little-endian                |
//! | f32 / f64       | IEEE bits little-endian                  |
//! | char            | u32 scalar value                         |
//! | str / bytes     | u32 length + raw bytes                   |
//! | option          | u8 flag + value                          |
//! | unit / unit str | nothing                                  |
//! | seq / map       | u32 length + elements                    |
//! | enum variant    | u32 index + payload                      |
//! | struct / tuple  | fields in order                          |

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
use std::fmt;

/// Errors produced by the wire codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Eof,
    /// Trailing bytes remained after deserialization.
    TrailingBytes(usize),
    /// A length prefix or scalar had an invalid value.
    Invalid(String),
    /// A serde-reported error.
    Message(String),
    /// The format is not self-describing, so `deserialize_any` (and
    /// formats that need it) cannot be supported.
    NotSelfDescribing,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Invalid(s) => write!(f, "invalid encoding: {s}"),
            WireError::Message(s) => write!(f, "{s}"),
            WireError::NotSelfDescribing => {
                write!(f, "wire format is not self-describing")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

/// Serializes a value to wire bytes.
///
/// # Errors
///
/// Any [`WireError`] reported during serialization (e.g. map lengths
/// exceeding `u32`).
pub(crate) fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    serialize_into(&mut out, value)?;
    Ok(out)
}

/// Serializes a value by appending its wire bytes to `out` — the
/// allocation-free core of the codec: with enough spare capacity in
/// `out`, serialization performs no heap allocation at all.
///
/// # Errors
///
/// Any [`WireError`] reported during serialization.
fn serialize_into<T: Serialize>(out: &mut Vec<u8>, value: &T) -> Result<(), WireError> {
    value.serialize(&mut WireSerializer { out })
}

/// Serializes a value into a single sealed [`PayloadBytes`](infopipes::PayloadBytes) buffer —
/// the entry point of the zero-copy payload path: the returned buffer is
/// shared (never copied) by every downstream crossing.
///
/// # Errors
///
/// Any [`WireError`] reported during serialization.
pub fn to_payload<T: Serialize>(value: &T) -> Result<infopipes::PayloadBytes, WireError> {
    to_bytes(value).map(infopipes::PayloadBytes::from_vec)
}

/// Serializes a value into a buffer drawn from `pool` and seals it —
/// the allocation-free variant of [`to_payload`]: in steady state
/// (recycled buffer, sufficient retained capacity) the seal performs
/// zero heap allocations. `size_hint` guides size-class selection;
/// callers that marshal a stream of similar messages pass the previous
/// message's size.
///
/// # Errors
///
/// Any [`WireError`] reported during serialization.
pub fn to_payload_in<T: Serialize>(
    pool: &infopipes::BufferPool,
    size_hint: usize,
    value: &T,
) -> Result<infopipes::PayloadBytes, WireError> {
    let mut buf = pool.acquire(size_hint);
    serialize_into(buf.buf_mut(), value)?;
    Ok(buf.seal())
}

/// Deserializes a value from wire bytes, requiring the input to be fully
/// consumed.
///
/// # Errors
///
/// Any [`WireError`]: truncated input, invalid encodings, or trailing
/// bytes.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, WireError> {
    let mut de = WireDeserializer { input: bytes };
    let value = T::deserialize(&mut de)?;
    if de.input.is_empty() {
        Ok(value)
    } else {
        Err(WireError::TrailingBytes(de.input.len()))
    }
}

// ---------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------

struct WireSerializer<'a> {
    out: &'a mut Vec<u8>,
}

impl WireSerializer<'_> {
    fn put_len(&mut self, len: usize) -> Result<(), WireError> {
        let len =
            u32::try_from(len).map_err(|_| WireError::Invalid("length exceeds u32".into()))?;
        self.out.extend_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

impl ser::Serializer for &mut WireSerializer<'_> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.push(u8::from(v));
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.out.push(v);
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put_len(v.len())?;
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.put_len(v.len())?;
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), WireError> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        self.out.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len =
            len.ok_or_else(|| WireError::Invalid("sequences must have a known length".into()))?;
        self.put_len(len)?;
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| WireError::Invalid("maps must have a known length".into()))?;
        self.put_len(len)?;
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
}

macro_rules! forward_compound {
    ($trait:ident, $method:ident $(, $key:ident)?) => {
        impl ser::$trait for &mut WireSerializer<'_> {
            type Ok = ();
            type Error = WireError;

            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
                value.serialize(&mut **self)
            }

            $(
                fn $key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
                    key.serialize(&mut **self)
                }
            )?

            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    };
}

forward_compound!(SerializeSeq, serialize_element);
forward_compound!(SerializeTuple, serialize_element);
forward_compound!(SerializeTupleStruct, serialize_field);
forward_compound!(SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for &mut WireSerializer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut WireSerializer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut WireSerializer<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------

struct WireDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> WireDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::Eof);
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn get_len(&mut self) -> Result<usize, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    }
}

macro_rules! read_scalar {
    ($self:ident, $ty:ty) => {{
        let raw = $self.take(std::mem::size_of::<$ty>())?;
        <$ty>::from_le_bytes(raw.try_into().expect("sized read"))
    }};
}

impl<'de> de::Deserializer<'de> for &mut WireDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(WireError::Invalid(format!("bool byte {other}"))),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i8(read_scalar!(self, i8))
    }

    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i16(read_scalar!(self, i16))
    }

    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i32(read_scalar!(self, i32))
    }

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i64(read_scalar!(self, i64))
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u8(read_scalar!(self, u8))
    }

    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u16(read_scalar!(self, u16))
    }

    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u32(read_scalar!(self, u32))
    }

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u64(read_scalar!(self, u64))
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_f32(read_scalar!(self, f32))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_f64(read_scalar!(self, f64))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let raw = read_scalar!(self, u32);
        let c = char::from_u32(raw)
            .ok_or_else(|| WireError::Invalid(format!("char scalar {raw:#x}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        let raw = self.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|e| WireError::Invalid(format!("utf-8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(WireError::Invalid(format!("option flag {other}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_map(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let idx = {
            let raw = self.de.take(4)?;
            u32::from_le_bytes(raw.try_into().expect("4 bytes"))
        };
        let value = seed.deserialize(idx.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v).expect("serialize");
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(&back, v);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        name: String,
        values: Vec<i32>,
        table: BTreeMap<String, u64>,
        flag: Option<bool>,
        pair: (u8, char),
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Sample {
        Unit,
        New(u32),
        Tuple(i8, i8),
        Struct { a: String, b: Option<f64> },
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&-5i8);
        round_trip(&0x1234i16);
        round_trip(&-0x1234_5678i32);
        round_trip(&i64::MIN);
        round_trip(&0xFFu8);
        round_trip(&u16::MAX);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&1.5f32);
        round_trip(&-2.25e10f64);
        round_trip(&'ß');
        round_trip(&String::from("hello, 世界"));
        round_trip(&());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<String>::new());
        round_trip(&Some(vec![1u8, 2]));
        round_trip(&Option::<u8>::None);
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1u64);
        m.insert("b".to_owned(), 2);
        round_trip(&m);
    }

    #[test]
    fn structs_and_enums_round_trip() {
        round_trip(&Nested {
            name: "x".into(),
            values: vec![-1, 0, 1],
            table: [("k".to_owned(), 9u64)].into_iter().collect(),
            flag: Some(true),
            pair: (7, 'q'),
        });
        round_trip(&Sample::Unit);
        round_trip(&Sample::New(42));
        round_trip(&Sample::Tuple(-1, 1));
        round_trip(&Sample::Struct {
            a: "s".into(),
            b: Some(0.5),
        });
    }

    #[test]
    fn truncated_input_reports_eof() {
        let bytes = to_bytes(&12345u64).unwrap();
        let r: Result<u64, _> = from_bytes(&bytes[..4]);
        assert_eq!(r.unwrap_err(), WireError::Eof);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        let r: Result<u8, _> = from_bytes(&bytes);
        assert_eq!(r.unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn invalid_encodings_are_rejected() {
        let r: Result<bool, _> = from_bytes(&[7]);
        assert!(matches!(r.unwrap_err(), WireError::Invalid(_)));
        let r: Result<Option<u8>, _> = from_bytes(&[9, 0]);
        assert!(matches!(r.unwrap_err(), WireError::Invalid(_)));
        // Invalid UTF-8 in a string.
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let r: Result<String, _> = from_bytes(&bytes);
        assert!(matches!(r.unwrap_err(), WireError::Invalid(_)));
    }

    #[test]
    fn encoding_is_compact() {
        // A u64 is exactly 8 bytes; a 3-element byte vec is 4 + 3.
        assert_eq!(to_bytes(&1u64).unwrap().len(), 8);
        assert_eq!(to_bytes(&vec![1u8, 2, 3]).unwrap().len(), 7);
        assert_eq!(to_bytes(&Sample::Unit).unwrap().len(), 4);
    }

    #[test]
    fn media_frames_round_trip() {
        use media::{CompressedFrame, FrameType};
        let f = CompressedFrame {
            seq: 9,
            pts_us: 300_000,
            ftype: FrameType::P,
            data: (0..=255).collect(),
        };
        round_trip(&f);
    }
}
