//! Typed message payloads.
//!
//! Ranks exchange typed buffers: a message's payload is the sender's `Vec<T>` itself,
//! handed to the receiving rank's thread by pointer move and never encoded.  The
//! [`Element`] trait marks the values that may travel and declares each one's *wire
//! size*, the byte count the cost model charges per element.  Data arrays in the paper
//! hold REAL*8 / INTEGER values (and, in the applications, small fixed-size records such
//! as particle velocities), so every element type has a fixed wire size.
//!
//! The wire size is a declaration, not `size_of`: it is the sum of the field sizes with
//! no padding, and `usize` counts 8 bytes on every target.  A `(u32, f64)` is charged 12
//! bytes although it occupies 16 in memory.  Byte counts and modeled time therefore never
//! depend on the host's memory layout.

use std::any::{type_name, Any};
use std::marker::PhantomData;

/// A fixed-size value that can travel in a message payload.
pub trait Element: Copy + Send + 'static {
    /// Wire size in bytes: what the cost model charges per element.  The sum of the
    /// field sizes, with no padding.
    const SIZE: usize;
}

macro_rules! impl_element_primitive {
    ($($t:ty),* $(,)?) => {
        $( impl Element for $t { const SIZE: usize = std::mem::size_of::<$t>(); } )*
    };
}

impl_element_primitive!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// `usize` is charged as 8 bytes on every target.
impl Element for usize {
    const SIZE: usize = 8;
}

impl<T: Element, const N: usize> Element for [T; N] {
    const SIZE: usize = T::SIZE * N;
}

impl<A: Element, B: Element> Element for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
}

impl<A: Element, B: Element, C: Element> Element for (A, B, C) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE;
}

/// Implement [`Element`] for a plain struct whose fields are all `Element`s.  The wire
/// size is the sum of the listed fields' sizes; the field list must name every field of
/// the struct with its type, which a compile-time check enforces.
///
/// ```
/// use mpsim::{impl_element_struct, Element};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// struct Particle { x: f64, v: f64, cell: u32 }
/// impl_element_struct!(Particle { x: f64, v: f64, cell: u32 });
///
/// assert_eq!(Particle::SIZE, 20);
/// ```
#[macro_export]
macro_rules! impl_element_struct {
    ($name:ident { $($field:ident : $fty:ty),+ $(,)? }) => {
        impl $crate::message::Element for $name {
            const SIZE: usize = 0 $(+ <$fty as $crate::message::Element>::SIZE)+;
        }

        const _: () = {
            // An exhaustive destructuring: a missing, extra or mistyped field in the list
            // would make `SIZE` wrong, and fails to compile here instead.
            #[allow(dead_code)]
            fn fields_match(value: &$name) {
                let $name { $($field),+ } = value;
                $( let _: &$fty = $field; )+
            }
        };
    };
}

/// A message buffer: the `Vec<T>` a message is packed into, boxed so that it becomes a
/// [`TypedPayload`]'s `Box<dyn Any>`, and comes back out of one, without allocating.
pub type Buffer<T> = Box<Vec<T>>;

/// The contents of one in-flight message: the sender's typed buffer, type-erased.
///
/// A non-empty payload holds the sender's pooled [`Buffer`] itself.  Coercing it to
/// `Box<dyn Any>` allocates nothing, and the receiving rank's `downcast` hands the same
/// box back, so a message costs no heap traffic once the pools are warm.  An empty
/// payload holds a zero-sized marker and touches no heap at all.
///
/// The payload records its byte length (`len · T::SIZE`, what the cost model charges)
/// and the element type's name, so a receive that expects a different element type fails
/// naming both.
pub struct TypedPayload {
    byte_len: usize,
    elem: &'static str,
    data: Box<dyn Any + Send>,
}

impl TypedPayload {
    /// Wrap a typed buffer for transport.
    pub fn new<T: Element>(values: Buffer<T>) -> Self {
        TypedPayload {
            byte_len: values.len() * T::SIZE,
            elem: type_name::<T>(),
            data: values,
        }
    }

    /// An empty payload of element type `T`.  Its marker is zero-sized, so building one
    /// allocates nothing.
    pub fn empty<T: Send + 'static>() -> Self {
        TypedPayload {
            byte_len: 0,
            elem: type_name::<T>(),
            data: Box::new(PhantomData::<T>),
        }
    }

    /// Byte length of the payload: what the cost model and the stats counters charge.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Recover the buffer as element type `T`: `None` for an empty payload.
    ///
    /// # Panics
    /// Panics if the payload holds a different element type, naming both types after
    /// `context()` (the receiving side, e.g. the rank, source and exchange epoch).  Two
    /// ranks disagreeing on a collective's element type is a protocol violation worth
    /// failing loudly on.
    pub fn into_values<T: Element>(self, context: impl FnOnce() -> String) -> Option<Buffer<T>> {
        if self.data.is::<PhantomData<T>>() {
            return None;
        }
        let elem = self.elem;
        match self.data.downcast::<Vec<T>>() {
            Ok(values) => Some(values),
            Err(_) => panic!(
                "{}: payload holds a different element type: sent as `{elem}`, received as \
                 `{}`",
                context(),
                type_name::<T>()
            ),
        }
    }
}

impl std::fmt::Debug for TypedPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedPayload")
            .field("elem", &self.elem)
            .field("bytes", &self.byte_len)
            .finish()
    }
}

/// A message in flight between two ranks.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub from: usize,
    /// Application-level tag used for selective receive.
    pub tag: u64,
    /// The typed payload.
    pub payload: TypedPayload,
    /// The sender's collective-ledger stamp, in the header: it adds no payload bytes.
    pub stamp: crate::ledger::Stamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send `values` through a payload and take them back, checking the charged bytes.
    fn round_trip<T: Element + PartialEq + std::fmt::Debug>(values: Vec<T>) {
        let payload = TypedPayload::new(Box::new(values.clone()));
        assert_eq!(payload.byte_len(), values.len() * T::SIZE);
        let back = payload.into_values::<T>(String::new);
        assert_eq!(back.as_deref(), Some(&values));
    }

    #[test]
    fn primitive_round_trip() {
        round_trip(vec![0.0f64, -1.5, 3.25, f64::MAX, f64::MIN_POSITIVE]);
        round_trip(vec![0i32, -1, i32::MAX, i32::MIN, 42]);
        round_trip(vec![0usize, 1, usize::MAX >> 1, 1234567]);
        assert_eq!(
            usize::SIZE,
            8,
            "usize is charged as 8 bytes on every target"
        );
    }

    #[test]
    fn array_and_tuple_round_trip() {
        round_trip(vec![[1.0f64, 2.0, 3.0], [-0.5, 0.0, 9.75]]);
        round_trip(vec![(7u32, 1.25f64), (0, -3.5)]);
        round_trip(vec![(7u32, 1.25f64, -9i64), (0, -3.5, 11)]);
        assert_eq!(<[f64; 3]>::SIZE, 24);
        // Wire sizes carry no padding: 12 and 20 bytes, where `size_of` says 16 and 24.
        assert_eq!(<(u32, f64)>::SIZE, 12);
        assert_eq!(<(u32, f64, i64)>::SIZE, 20);
    }

    #[test]
    fn struct_macro_round_trip() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct P {
            pos: [f64; 2],
            vel: [f64; 2],
            id: u64,
        }
        impl_element_struct!(P {
            pos: [f64; 2],
            vel: [f64; 2],
            id: u64
        });

        assert_eq!(P::SIZE, 40);
        round_trip(vec![
            P {
                pos: [0.0, 1.0],
                vel: [2.0, -2.0],
                id: 3,
            },
            P {
                pos: [9.5, -8.25],
                vel: [0.0, 0.125],
                id: u64::MAX,
            },
        ]);
    }

    #[test]
    fn typed_payload_round_trips_and_counts_bytes() {
        let values = Box::new(vec![1.0f64, 2.0, 3.0]);
        let ptr = values.as_ptr();
        let p = TypedPayload::new(values);
        assert_eq!(p.byte_len(), 24);
        let back = p
            .into_values::<f64>(String::new)
            .expect("non-empty payload");
        assert_eq!(*back, vec![1.0, 2.0, 3.0]);
        assert_eq!(back.as_ptr(), ptr, "the buffer moved, not its contents");
    }

    #[test]
    #[should_panic(
        expected = "receiver: payload holds a different element type: sent as `f64`, \
                               received as `u64`"
    )]
    fn typed_payload_rejects_wrong_type() {
        let t = TypedPayload::new(Box::new(vec![1.0f64]));
        let _ = t.into_values::<u64>(|| "receiver".to_string());
    }

    #[test]
    fn empty_round_trip() {
        let p = TypedPayload::empty::<f64>();
        assert_eq!(p.byte_len(), 0);
        assert!(p.into_values::<f64>(String::new).is_none());
        // An empty payload still knows its element type.
        let wrong = std::panic::catch_unwind(|| {
            TypedPayload::empty::<f64>().into_values::<u64>(String::new)
        });
        assert!(
            wrong.is_err(),
            "an empty f64 payload received as u64 must panic"
        );
    }
}
