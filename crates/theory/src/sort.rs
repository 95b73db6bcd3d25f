//! Payload sorts `S` (Definition 1) and the subsort relation `≤:`.

use std::fmt;
use std::str::FromStr;

use crate::name::Name;

/// The payload sort carried by a message label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Sort {
    /// No payload (`label()` in Scribble).
    #[default]
    Unit,
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer (plays the role of `nat` in the paper).
    U32,
    /// 64-bit signed integer.
    I64,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit float.
    F64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// An opaque application-defined sort, compared nominally.
    Custom(Name),
}

impl Sort {
    /// The reflexive subsort relation `≤:` of the paper, extended to the
    /// full sort lattice: unsigned widths embed into wider signed/unsigned
    /// widths (`nat ≤: int` generalised).
    pub fn is_subsort_of(&self, other: &Sort) -> bool {
        use Sort::*;
        if self == other {
            return true;
        }
        matches!(
            (self, other),
            (U32, I64) | (U32, U64) | (U32, I32) | (I32, I64) | (U64, I64)
        )
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Unit => f.write_str("unit"),
            Sort::I32 => f.write_str("i32"),
            Sort::U32 => f.write_str("u32"),
            Sort::I64 => f.write_str("i64"),
            Sort::U64 => f.write_str("u64"),
            Sort::F64 => f.write_str("f64"),
            Sort::Bool => f.write_str("bool"),
            Sort::Str => f.write_str("str"),
            Sort::Custom(name) => write!(f, "{name}"),
        }
    }
}

impl FromStr for Sort {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "" | "unit" | "()" => Sort::Unit,
            "i32" | "int" => Sort::I32,
            "u32" | "nat" => Sort::U32,
            "i64" => Sort::I64,
            "u64" => Sort::U64,
            "f64" => Sort::F64,
            "bool" => Sort::Bool,
            "str" | "string" => Sort::Str,
            other => Sort::Custom(Name::from(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflexive() {
        for sort in [Sort::Unit, Sort::I32, Sort::U32, Sort::Custom("x".into())] {
            assert!(sort.is_subsort_of(&sort));
        }
    }

    #[test]
    fn nat_below_int() {
        assert!(Sort::U32.is_subsort_of(&Sort::I32));
        assert!(Sort::U32.is_subsort_of(&Sort::I64));
        assert!(!Sort::I32.is_subsort_of(&Sort::U32));
    }

    #[test]
    fn custom_sorts_relate_to_themselves_only() {
        let (spelled_i32, matrix) = (Sort::Custom("i32".into()), Sort::Custom("matrix".into()));
        for builtin in [Sort::Unit, Sort::I32, Sort::U32, Sort::I64, Sort::Str] {
            for custom in [spelled_i32, matrix] {
                assert!(!custom.is_subsort_of(&builtin), "{custom} ≤: {builtin}");
                assert!(!builtin.is_subsort_of(&custom), "{builtin} ≤: {custom}");
            }
        }
        assert!(!spelled_i32.is_subsort_of(&matrix));
        assert!(matrix.is_subsort_of(&Sort::Custom("matrix".into())));
    }

    #[test]
    fn parse_aliases() {
        assert_eq!("nat".parse::<Sort>().unwrap(), Sort::U32);
        assert_eq!("int".parse::<Sort>().unwrap(), Sort::I32);
        assert_eq!(
            "matrix".parse::<Sort>().unwrap(),
            Sort::Custom("matrix".into())
        );
    }
}
