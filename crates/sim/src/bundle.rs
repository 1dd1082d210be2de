//! Declared signal bundles: the [`Bundle`] and [`Field`] traits and the
//! [`declare_signals!`](crate::declare_signals) macro that builds a bundle's
//! packed layout — pack, unpack, word count, wire-normalised value and
//! [`Snapshot`](crate::Snapshot) — from one list of its fields and widths.

/// A value packed as a fixed run of `u32` words, declared by
/// [`declare_signals!`](crate::declare_signals). Generic code sees the run
/// as a slice; a declared type also has `pack(&self) -> [u32; WORDS]` and
/// `unpack(&[u32; WORDS])`.
pub trait Bundle: Sized {
    /// The words of one packed value.
    const WORDS: usize;

    /// Packs into `out`, which is [`WORDS`](Bundle::WORDS) long.
    ///
    /// # Panics
    ///
    /// Panics if `out` has another length.
    fn pack_into(&self, out: &mut [u32]);

    /// Unpacks a run of [`WORDS`](Bundle::WORDS) words: `None` for a run of
    /// another length, a reserved bit set or an illegal code.
    fn unpack(words: &[u32]) -> Option<Self>;
}

/// A field of a declared bundle, carried as the low bits of a word.
pub trait Field: Copy {
    /// The field's bits, before they are masked to its declared width.
    fn to_bits(self) -> u32;

    /// The value of `bits`, masked to the declared width; `None` for a code
    /// the type does not take.
    fn from_bits(bits: u32) -> Option<Self>;
}

impl Field for bool {
    #[inline]
    fn to_bits(self) -> u32 {
        u32::from(self)
    }

    #[inline]
    fn from_bits(bits: u32) -> Option<bool> {
        (bits <= 1).then_some(bits == 1)
    }
}

macro_rules! unsigned {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            #[inline]
            fn to_bits(self) -> u32 {
                u32::from(self)
            }

            #[inline]
            fn from_bits(bits: u32) -> Option<$ty> {
                <$ty>::try_from(bits).ok()
            }
        }
    )*};
}

unsigned!(u8, u16, u32);

/// Declares a signal bundle's packed layout once, or a fieldless enum's
/// codes once.
///
/// ```text
/// declare_signals! {
///     impl Type {
///         [field: width, field: width, …],   // word 0, least significant bits first
///         [field: width, …],                 // word 1
///     }
/// }
/// ```
///
/// Every field of the struct is listed, in wire order, with its width in
/// bits; a bracket is one word, so a field never straddles two, and the
/// bits above a word's last field are reserved. A field's type is a
/// [`Field`]: `bool`, `u8`, `u16`, `u32`, or an enum declared by the second
/// form. The declaration generates:
///
/// * the [`Bundle`] impl, its word count and the inherent `pack(&self) ->
///   [u32; WORDS]` and `unpack(&[u32; WORDS]) -> Option<Self>`. An unpack
///   refuses a word with a reserved bit set and a field whose bits are no
///   code of its type; a pack keeps each field's low `width` bits;
/// * `normalized(self) -> Self`: the value as the wire carries it, which is
///   what a pack/unpack round trip gives;
/// * the [`Snapshot`](crate::Snapshot): the packed words, one each, refused
///   at the run's first word where `unpack` refuses them.
///
/// The second form takes a fieldless enum whose every variant names its
/// code, and emits it with `encode(self) -> u32`, `decode(u32) ->
/// Option<Self>`, `ALL` (every variant, in declaration order), its
/// [`Field`] impl, and a [`Snapshot`](crate::Snapshot) of one word, the
/// code:
///
/// ```text
/// declare_signals! {
///     pub enum Kind { A = 0b00, B = 0b01 }
/// }
/// ```
///
/// # Example
///
/// ```
/// use predpkt_sim::{declare_signals, restore_from_vec, save_to_vec, Bundle, SnapshotError, StateVec};
///
/// declare_signals! {
///     #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
///     enum Mode { #[default] Off = 0, On = 1, Hold = 2 }
/// }
///
/// #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
/// struct Port {
///     valid: bool,
///     mode: Mode,
///     tag: u8,
///     data: u32,
/// }
///
/// declare_signals! {
///     impl Port {
///         [valid: 1, mode: 2, tag: 4],
///         [data: 32],
///     }
/// }
///
/// let port = Port { valid: true, mode: Mode::Hold, tag: 0x1f, data: 7 };
/// assert_eq!(Port::WORDS, 2);
/// assert_eq!(port.pack(), [0b1111_10_1, 7]);
/// assert_eq!(port.normalized(), Port { tag: 0xf, ..port });
/// assert_eq!(Port::unpack(&[0b11 << 1, 0]), None, "no mode has code 3");
///
/// let mut reserved = save_to_vec(&port).words().to_vec();
/// reserved[0] |= 1 << 7;
/// assert_eq!(
///     restore_from_vec(&mut Port::default(), &StateVec::from(reserved)),
///     Err(SnapshotError::Corrupt { at: 0 })
/// );
/// ```
#[macro_export]
macro_rules! declare_signals {
    (
        $(#[$attr:meta])*
        $vis:vis enum $ty:ident {
            $($(#[$vattr:meta])* $variant:ident = $code:literal),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $ty {
            $($(#[$vattr])* $variant = $code),+
        }

        #[allow(dead_code)]
        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($ty::$variant),+].len()] = [$($ty::$variant),+];

            /// The variant's declared code.
            #[inline]
            pub fn encode(self) -> u32 {
                self as u32
            }

            /// The variant whose declared code is `code`.
            #[inline]
            pub fn decode(code: u32) -> Option<$ty> {
                match code {
                    $($code => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::Field for $ty {
            #[inline]
            fn to_bits(self) -> u32 {
                self.encode()
            }

            #[inline]
            fn from_bits(bits: u32) -> Option<$ty> {
                $ty::decode(bits)
            }
        }

        $crate::declare_state! { impl $ty: word(encode, decode) }
    };
    (impl $ty:ty { $([$($field:ident : $width:literal),+ $(,)?]),+ $(,)? }) => {
        $(const _: () = assert!(0 $(+ $width)+ <= 32, "a word holds 32 bits");)+

        impl $crate::Bundle for $ty {
            const WORDS: usize = [$(stringify!($($field)+)),+].len();

            #[inline]
            fn pack_into(&self, out: &mut [u32]) {
                out.copy_from_slice(&self.pack());
            }

            #[inline]
            fn unpack(words: &[u32]) -> Option<Self> {
                Self::unpack(words.try_into().ok()?)
            }
        }

        impl $ty {
            /// Packs into the declared words, least significant field
            /// first; each field keeps its declared width.
            #[inline]
            pub fn pack(&self) -> [u32; <$ty as $crate::Bundle>::WORDS] {
                [$({
                    let mut word = 0u32;
                    let mut at = 0u32;
                    $(
                        word |= ($crate::Field::to_bits(self.$field) & (u32::MAX >> (32 - $width))) << at;
                        at += $width;
                    )+
                    let _ = at;
                    word
                }),+]
            }

            /// Unpacks the [`pack`](Self::pack) encoding: `None` for a
            /// reserved bit set or an illegal code.
            #[inline]
            pub fn unpack(words: &[u32; <$ty as $crate::Bundle>::WORDS]) -> Option<Self> {
                let mut words = words.iter();
                $(
                    let word = *words.next()?;
                    let mut at = 0u32;
                    $(
                        let $field = $crate::Field::from_bits((word >> at) & (u32::MAX >> (32 - $width)))?;
                        at += $width;
                    )+
                    if word.checked_shr(at).unwrap_or(0) != 0 {
                        return None;
                    }
                )+
                Some(Self { $($($field),+),+ })
            }

            /// The value as the wire carries it: what a pack/unpack round
            /// trip gives.
            #[inline]
            pub fn normalized(self) -> Self {
                Self::unpack(&self.pack()).expect("a bundle unpacks its own packing")
            }
        }

        impl $crate::Snapshot for $ty {
            #[inline]
            fn save(&self, w: &mut $crate::StateWriter<'_>) {
                for word in self.pack() {
                    w.u32(word);
                }
            }

            #[inline]
            fn restore(&mut self, r: &mut $crate::StateReader<'_>) -> Result<(), $crate::SnapshotError> {
                let at = r.position();
                *self = Self::unpack(&r.u32_array()?).ok_or_else(|| r.corrupt_at(at))?;
                Ok(())
            }

            #[inline]
            fn saved_len(&self) -> usize {
                <Self as $crate::Bundle>::WORDS
            }

            #[inline]
            fn rewind(&mut self, r: &mut $crate::StateReader<'_>) {
                *self = Self::unpack(&$crate::__marked_array(r)).expect("a rewind reads its own mark");
            }
        }
    };
}
