//! PostgreSQL-style type system: on-disk sizes, alignment, and runtime values.
//!
//! PARINDA's what-if sizing (Equation 1 of the paper) depends on two
//! per-column properties of the underlying DBMS type system: the average
//! on-disk size of a value and the alignment padding inserted before it.
//! This module reproduces PostgreSQL 8.3's `typlen`/`typalign` behaviour for
//! the types that appear in analytical workloads such as SDSS.

use std::cmp::Ordering;
use std::fmt;

/// Alignment category, mirroring PostgreSQL's `typalign` catalog column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Align {
    /// `typalign = 'c'`: byte-aligned.
    Char,
    /// `typalign = 's'`: 2-byte aligned.
    Short,
    /// `typalign = 'i'`: 4-byte aligned.
    Int,
    /// `typalign = 'd'`: 8-byte aligned.
    Double,
}

impl Align {
    /// The alignment boundary in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Align::Char => 1,
            Align::Short => 2,
            Align::Int => 4,
            Align::Double => 8,
        }
    }

    /// Round `offset` up to this alignment boundary.
    #[inline]
    pub fn align_up(self, offset: usize) -> usize {
        let a = self.bytes();
        offset.div_ceil(a) * a
    }

    /// Padding bytes required to align `offset`.
    #[inline]
    pub fn padding(self, offset: usize) -> usize {
        self.align_up(offset) - offset
    }
}

/// SQL data types supported by the substrate, with PostgreSQL 8.3 layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 1-byte boolean.
    Bool,
    /// 2-byte integer (`smallint`).
    Int2,
    /// 4-byte integer (`integer`).
    Int4,
    /// 8-byte integer (`bigint`).
    Int8,
    /// 4-byte IEEE float (`real`).
    Float4,
    /// 8-byte IEEE float (`double precision`).
    Float8,
    /// Variable-length text; average width is tracked per column.
    Text,
    /// Bounded varchar; `n` is the declared maximum number of characters.
    VarChar(u32),
    /// 4-byte calendar date.
    Date,
    /// 8-byte timestamp.
    Timestamp,
}

impl SqlType {
    /// On-disk size in bytes for fixed-length types; `None` for varlena.
    #[inline]
    pub fn fixed_size(self) -> Option<usize> {
        match self {
            SqlType::Bool => Some(1),
            SqlType::Int2 => Some(2),
            SqlType::Int4 | SqlType::Float4 | SqlType::Date => Some(4),
            SqlType::Int8 | SqlType::Float8 | SqlType::Timestamp => Some(8),
            SqlType::Text | SqlType::VarChar(_) => None,
        }
    }

    /// Alignment category (PostgreSQL `typalign`).
    #[inline]
    pub fn align(self) -> Align {
        match self {
            SqlType::Bool => Align::Char,
            SqlType::Int2 => Align::Short,
            SqlType::Int4 | SqlType::Float4 | SqlType::Date => Align::Int,
            SqlType::Int8 | SqlType::Float8 | SqlType::Timestamp => Align::Double,
            // varlena values are int-aligned in 8.3 heap tuples
            SqlType::Text | SqlType::VarChar(_) => Align::Int,
        }
    }

    /// Average stored size given the column's average logical width.
    ///
    /// For fixed types this ignores `avg_width`; for varlena types it adds
    /// the 4-byte length header PostgreSQL 8.3 uses for values > 126 bytes
    /// (we conservatively use the 1-byte short header for short strings).
    pub fn avg_stored_size(self, avg_width: f64) -> f64 {
        match self.fixed_size() {
            Some(n) => n as f64,
            None => {
                let header = if avg_width <= 126.0 { 1.0 } else { 4.0 };
                header + avg_width
            }
        }
    }

    /// Human-readable SQL name.
    pub fn sql_name(self) -> String {
        match self {
            SqlType::Bool => "boolean".into(),
            SqlType::Int2 => "smallint".into(),
            SqlType::Int4 => "integer".into(),
            SqlType::Int8 => "bigint".into(),
            SqlType::Float4 => "real".into(),
            SqlType::Float8 => "double precision".into(),
            SqlType::Text => "text".into(),
            SqlType::VarChar(n) => format!("varchar({n})"),
            SqlType::Date => "date".into(),
            SqlType::Timestamp => "timestamp".into(),
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sql_name())
    }
}

/// A runtime value ("datum" in PostgreSQL parlance).
///
/// Integers and floats are widened to 64 bits at runtime; the declared
/// [`SqlType`] still governs on-disk layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Datum {
    /// True iff this is the SQL NULL value.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Numeric view used by selectivity interpolation; `None` for
    /// non-numeric or NULL values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Float(f) => Some(*f),
            Datum::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; floats are not coerced.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view for text datums.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison with NULL ordered last (PostgreSQL `NULLS LAST`).
    ///
    /// Cross-type numeric comparisons (int vs float) are supported because
    /// the executor widens literals; comparing text with numbers orders
    /// numbers first deterministically.
    pub fn sql_cmp(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            // Deterministic but arbitrary cross-type order.
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(_), Str(_)) | (Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) | (Str(_), Float(_)) => Ordering::Greater,
        }
    }

    /// SQL equality: NULL never equals anything (three-valued logic is
    /// handled by the expression evaluator; this returns false for NULLs).
    pub fn sql_eq(&self, other: &Datum) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.sql_cmp(other) == Ordering::Equal
    }

    /// Size in bytes this value occupies on disk when stored as `ty`.
    pub fn stored_size(&self, ty: SqlType) -> usize {
        match ty.fixed_size() {
            Some(n) => n,
            None => {
                let len = match self {
                    Datum::Str(s) => s.len(),
                    Datum::Null => 0,
                    _ => 8,
                };
                let header = if len <= 126 { 1 } else { 4 };
                header + len
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_rounds_to_boundary() {
        assert_eq!(Align::Double.align_up(1), 8);
        assert_eq!(Align::Double.align_up(8), 8);
        assert_eq!(Align::Int.align_up(5), 8);
        assert_eq!(Align::Int.align_up(4), 4);
        assert_eq!(Align::Short.align_up(3), 4);
        assert_eq!(Align::Char.align_up(3), 3);
    }

    #[test]
    fn padding_is_difference() {
        for off in 0..64 {
            for a in [Align::Char, Align::Short, Align::Int, Align::Double] {
                assert_eq!(a.padding(off), a.align_up(off) - off);
                assert!(a.padding(off) < a.bytes());
            }
        }
    }

    #[test]
    fn fixed_sizes_match_postgres() {
        assert_eq!(SqlType::Bool.fixed_size(), Some(1));
        assert_eq!(SqlType::Int2.fixed_size(), Some(2));
        assert_eq!(SqlType::Int4.fixed_size(), Some(4));
        assert_eq!(SqlType::Int8.fixed_size(), Some(8));
        assert_eq!(SqlType::Float4.fixed_size(), Some(4));
        assert_eq!(SqlType::Float8.fixed_size(), Some(8));
        assert_eq!(SqlType::Text.fixed_size(), None);
    }

    #[test]
    fn alignment_matches_postgres() {
        assert_eq!(SqlType::Int8.align(), Align::Double);
        assert_eq!(SqlType::Timestamp.align(), Align::Double);
        assert_eq!(SqlType::Int4.align(), Align::Int);
        assert_eq!(SqlType::Int2.align(), Align::Short);
        assert_eq!(SqlType::Bool.align(), Align::Char);
    }

    #[test]
    fn varlena_avg_size_includes_header() {
        assert_eq!(SqlType::Text.avg_stored_size(10.0), 11.0);
        assert_eq!(SqlType::Text.avg_stored_size(200.0), 204.0);
        assert_eq!(SqlType::Int4.avg_stored_size(99.0), 4.0);
    }

    #[test]
    fn datum_cmp_nulls_last() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), Ordering::Greater);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), Ordering::Less);
        assert_eq!(Datum::Null.sql_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn datum_cross_numeric_cmp() {
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Float(2.5)), Ordering::Less);
        assert_eq!(Datum::Float(3.0).sql_cmp(&Datum::Int(3)), Ordering::Equal);
    }

    #[test]
    fn sql_eq_is_false_for_null() {
        assert!(!Datum::Null.sql_eq(&Datum::Null));
        assert!(Datum::Int(5).sql_eq(&Datum::Int(5)));
        assert!(!Datum::Int(5).sql_eq(&Datum::Int(6)));
    }

    #[test]
    fn stored_size_of_strings() {
        let d = Datum::Str("hello".into());
        assert_eq!(d.stored_size(SqlType::Text), 6);
        let long = Datum::Str("x".repeat(200));
        assert_eq!(long.stored_size(SqlType::Text), 204);
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Datum::Str("o'neil".into()).to_string(), "'o''neil'");
        assert_eq!(Datum::Int(42).to_string(), "42");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }
}
