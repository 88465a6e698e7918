//! Serialization half of the serde data model (workspace subset).

use std::fmt::Display;

/// Errors a [`Serializer`] can produce.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a display-able message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be serialized into any serde data format.
pub trait Serialize {
    /// Serializes `self` with the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format that can serialize the serde data model.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Compound serializer for sequences.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuples.
    type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuple structs.
    type SerializeTupleStruct: SerializeTupleStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuple enum variants.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for maps.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for structs.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for struct enum variants.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a `bool`.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i8`.
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i16`.
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i32`.
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i64`.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u8`.
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u16`.
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u32`.
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u64`.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `f32`.
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `f64`.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `char`.
    fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error>;
    /// Serializes a string slice.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes raw bytes.
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::Some(value)`.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Serializes `()`.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit struct.
    fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit enum variant.
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype struct.
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype enum variant.
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Begins a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begins a tuple.
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
    /// Begins a tuple struct.
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, Self::Error>;
    /// Begins a tuple enum variant.
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;
    /// Begins a map.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    /// Begins a struct.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    /// Begins a struct enum variant.
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;

    /// Whether the format is human readable.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// Incremental serializer for sequence elements.
pub trait SerializeSeq {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for tuple elements.
pub trait SerializeTuple {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the tuple.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for tuple-struct fields.
pub trait SerializeTupleStruct {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for tuple-variant fields.
pub trait SerializeTupleVariant {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for map entries.
pub trait SerializeMap {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one key.
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;
    /// Serializes one value.
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for struct fields.
pub trait SerializeStruct {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serializer for struct-variant fields.
pub trait SerializeStructVariant {
    /// See [`Serializer::Ok`].
    type Ok;
    /// See [`Serializer::Error`].
    type Error: Error;
    /// Serializes one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

// ---------------------------------------------------------------------
// Serialize impls for primitives and std containers
// ---------------------------------------------------------------------

macro_rules! primitive_serialize {
    ($($ty:ty => $method:ident),* $(,)?) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self)
            }
        }
    )*};
}

primitive_serialize! {
    bool => serialize_bool,
    i8 => serialize_i8,
    i16 => serialize_i16,
    i32 => serialize_i32,
    i64 => serialize_i64,
    u8 => serialize_u8,
    u16 => serialize_u16,
    u32 => serialize_u32,
    u64 => serialize_u64,
    f32 => serialize_f32,
    f64 => serialize_f64,
    char => serialize_char,
}

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(*self as u64)
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_i64(*self as i64)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

/// Shared pointers serialize as what they point to (real serde: `rc`).
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.serialize_none(),
            Some(v) => serializer.serialize_some(v),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut tup = serializer.serialize_tuple(N)?;
        for item in self {
            tup.serialize_element(item)?;
        }
        tup.end()
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_key(k)?;
            map.serialize_value(v)?;
        }
        map.end()
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for std::collections::HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_key(k)?;
            map.serialize_value(v)?;
        }
        map.end()
    }
}

macro_rules! tuple_serialize {
    ($(($($name:ident . $idx:tt),+) => $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut tup = serializer.serialize_tuple($len)?;
                $( tup.serialize_element(&self.$idx)?; )+
                tup.end()
            }
        }
    )*};
}

tuple_serialize! {
    (T0.0) => 1;
    (T0.0, T1.1) => 2;
    (T0.0, T1.1, T2.2) => 3;
    (T0.0, T1.1, T2.2, T3.3) => 4;
    (T0.0, T1.1, T2.2, T3.3, T4.4) => 5;
    (T0.0, T1.1, T2.2, T3.3, T4.4, T5.5) => 6;
}
