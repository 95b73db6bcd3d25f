//! The workspace's one JSON writer.
//!
//! Every machine-readable artifact — the optimiser's `--report`,
//! `subtype --json`, the Chrome traces — is built as a [`Value`] and
//! rendered here. The toolchain never reads JSON back; the tests hold
//! the artifacts to their in-memory values or their pinned bytes. It
//! lives in `theory` because that is the one crate every producer
//! already depends on.
//!
//! * [`Value`] keeps `u64`, `i64` and `f64` apart, so a counter at
//!   `u64::MAX` is written in full instead of being squeezed through a
//!   double.
//! * The writer ([`Value`]'s `Display`; `{:#}` breaks long containers
//!   over indented lines) escapes every string and writes non-finite
//!   floats as `null`, so its output always parses: a test-only reader
//!   here checks that on arbitrary values, in both layouts.
//! * [`Json`] is the typed layer: a record declared with
//!   [`json_record!`](crate::json_record) gets its one `to_json` from
//!   its field list, so a schema change is made in one place.

use std::fmt::{self, Write as _};

/// Widest a container may render on one line under `{:#}`.
const PRETTY_WIDTH: usize = 160;

/// A JSON document. Objects keep their members in insertion order, so
/// artifacts render in the order their record declares.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            // `{:?}` is the shortest text that reads back as the same
            // double and always carries a `.` or an exponent.
            Value::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                write_container(out, indent, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Value::Object(members) => write_container(
                out,
                indent,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

/// The workspace's one string escaper.
fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one array or object on a single line; under `indent`, a
/// rendering wider than [`PRETTY_WIDTH`] is redone one entry per line.
fn write_container<'a>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let render = |out: &mut String, level: Option<usize>| {
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', level * 2));
        };
        out.push(open);
        for (index, (key, value)) in entries.clone().enumerate() {
            if index > 0 {
                out.push(',');
            }
            match level {
                Some(level) => newline(out, level + 1),
                None if index > 0 => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                write_string(out, key);
                out.push_str(": ");
            }
            value.write(out, level.map(|level| level + 1));
        }
        if let Some(level) = level {
            newline(out, level);
        }
        out.push(close);
    };
    let start = out.len();
    render(out, None);
    if indent.is_some() && out.len() - start > PRETTY_WIDTH {
        out.truncate(start);
        render(out, indent);
    }
}

/// A type with exactly one JSON encoding.
pub trait Json {
    /// Encodes `self`.
    fn to_json(&self) -> Value;
}

/// `impl Json` for the payload type of one [`Value`] variant.
macro_rules! variant_json {
    ($($ty:ty: $variant:ident;)*) => {$(
        impl Json for $ty {
            fn to_json(&self) -> Value {
                Value::$variant(self.clone())
            }
        }
    )*};
}

variant_json! {
    bool: Bool;
    u64: U64;
    String: String;
    f64: F64;
}

impl Json for usize {
    fn to_json(&self) -> Value {
        Value::U64(*self as u64)
    }
}

/// `None` is `null`.
impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

/// Rounds `value` to `decimals` places: artifacts carry a fixed
/// precision so they diff cleanly across runs.
pub fn rounded(value: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (value * scale).round() / scale
}

/// Declares a struct whose JSON form is an object with one member per
/// field, in declaration order, and implements [`Json`](crate::json::Json)
/// for it. Every field type must itself be `Json`.
#[macro_export]
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty),*
        }

        impl $crate::json::Json for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::object([
                    $((stringify!($field), $crate::json::Json::to_json(&self.$field))),*
                ])
            }
        }
    };
}

/// The reader the tests hold the writer to. Nesting is capped at
/// [`MAX_DEPTH`](reader::MAX_DEPTH), so a document nested too deeply is
/// an error, not a stack overflow.
#[cfg(test)]
mod reader {
    use super::Value;

    /// Deepest container nesting [`parse`] accepts.
    pub const MAX_DEPTH: usize = 128;

    /// A malformed document.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Error(String);

    impl Error {
        fn new(message: impl Into<String>) -> Self {
            Error(message.into())
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing input"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn error(&self, what: &str) -> Error {
            Error::new(format!("{what} at byte {}", self.pos))
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn value(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self
                    .container(b'}', |parser, members: &mut Vec<_>| {
                        let key = parser.string()?;
                        parser.skip_ws();
                        if parser.peek() != Some(b':') {
                            return Err(parser.error("expected `:`"));
                        }
                        parser.pos += 1;
                        members.push((key, parser.value()?));
                        Ok(())
                    })
                    .map(Value::Object),
                Some(b'[') => self
                    .container(b']', |parser, items: &mut Vec<_>| {
                        items.push(parser.value()?);
                        Ok(())
                    })
                    .map(Value::Array),
                Some(b'"') => self.string().map(Value::String),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.error("unexpected input")),
            }
        }

        /// Parses `open entry (, entry)* close`, the opening byte at `pos`.
        fn container<T>(
            &mut self,
            close: u8,
            mut entry: impl FnMut(&mut Self, &mut Vec<T>) -> Result<(), Error>,
        ) -> Result<Vec<T>, Error> {
            if self.depth == MAX_DEPTH {
                return Err(self.error("nesting deeper than MAX_DEPTH"));
            }
            self.depth += 1;
            self.pos += 1;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(close) {
                self.pos += 1;
            } else {
                loop {
                    self.skip_ws();
                    entry(self, &mut entries)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(c) if c == close => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.error("expected `,` or a closing bracket")),
                    }
                }
            }
            self.depth -= 1;
            Ok(entries)
        }

        fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(value)
            } else {
                Err(self.error("invalid literal"))
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            let token =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by the scan");
            // Integers keep their full width; only what does not fit (or is
            // written with a fraction or exponent) becomes a double.
            let value = if let Ok(n) = token.parse::<u64>() {
                Value::U64(n)
            } else if let Ok(n) = token.parse::<i64>() {
                Value::I64(n)
            } else {
                match token.parse::<f64>() {
                    Ok(x) if x.is_finite() => Value::F64(x),
                    _ => {
                        self.pos = start;
                        return Err(self.error("invalid number"));
                    }
                }
            };
            Ok(value)
        }

        fn hex4(&mut self) -> Result<u32, Error> {
            let digits = self
                .bytes
                .get(self.pos..self.pos + 4)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            self.pos += 4;
            Ok(digits)
        }

        fn string(&mut self) -> Result<String, Error> {
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string"));
            }
            self.pos += 1;
            let mut out = String::new();
            loop {
                // Copy the run up to the next quote or escape in one piece;
                // both are ASCII, so the cut is on a character boundary of
                // the `&str` the bytes came from.
                let run = self.pos;
                while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[run..self.pos])
                        .expect("cut at ASCII in a &str"),
                );
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    _ => self.pos += 1,
                }
                let escape = self
                    .peek()
                    .ok_or_else(|| self.error("unterminated string"))?;
                self.pos += 1;
                out.push(match escape {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let mut code = self.hex4()?;
                        if (0xD800..0xDC00).contains(&code)
                            && self.bytes[self.pos..].starts_with(b"\\u")
                        {
                            self.pos += 2;
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.error("unpaired surrogate"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
                    }
                    _ => return Err(self.error("invalid escape")),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reader::{parse, MAX_DEPTH};
    use super::*;
    use proptest::prelude::*;
    use proptest::{bool, collection, sample};

    json_record! {
        #[derive(Debug, PartialEq)]
        struct Sample {
            name: String,
            count: u64,
            ratio: Option<f64>,
            tags: Vec<String>,
        }
    }

    #[test]
    fn integers_keep_their_width() {
        for n in [0, 1, u64::MAX] {
            assert_eq!(parse(&Value::U64(n).to_string()), Ok(Value::U64(n)));
        }
        assert_eq!(parse(&i64::MIN.to_string()), Ok(Value::I64(i64::MIN)));
        // Too wide for any integer: a double, not an error.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::F64(18446744073709551616.0))
        );
        assert_eq!(parse("-2.5e3"), Ok(Value::F64(-2500.0)));
        assert!(parse("1e999").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn floats_round_trip_and_non_finite_is_null() {
        for x in [0.0, 1.5, -0.1, 461.2, 1e21, 5e-324] {
            let text = Value::F64(x).to_string();
            assert_eq!(parse(&text), Ok(Value::F64(x)), "{text}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::F64(x).to_string(), "null");
        }
        assert_eq!(rounded(3.449, 1), 3.4);
        assert_eq!(rounded(0.02204, 4), 0.022);
    }

    #[test]
    fn strings_are_escaped_and_unescaped() {
        let nasty = "a\"b\\c\nd\te\r\u{1}\u{1F600}é";
        let text = Value::String(nasty.to_owned()).to_string();
        assert!(text.starts_with("\"a\\\"b\\\\c\\nd\\te\\r\\u0001"));
        assert_eq!(parse(&text), Ok(Value::String(nasty.to_owned())));
        // Escapes the writer never produces still read: `\/`, `\b`,
        // `\f`, and a surrogate pair.
        assert_eq!(
            parse(r#""\/\b\f😀é""#),
            Ok(Value::String("/\u{8}\u{c}\u{1F600}é".to_owned()))
        );
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83d\u0041""#).is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn documents_parse_and_malformed_ones_do_not() {
        let value = parse(r#" {"a": [1, -2, 3.0, true, null], "b": {}, "c": []} "#).unwrap();
        assert_eq!(
            value.get("a"),
            Some(&Value::Array(vec![
                Value::U64(1),
                Value::I64(-2),
                Value::F64(3.0),
                Value::Bool(true),
                Value::Null,
            ]))
        );
        assert_eq!(value.get("b"), Some(&Value::Object(vec![])));
        assert_eq!(value.get("missing"), None);
        for bad in [
            "",
            "not json",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "[1] 2",
            "tru",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn pretty_output_breaks_only_long_containers() {
        let short = Value::object([("k", Value::U64(1)), ("l", Value::Array(vec![]))]);
        assert_eq!(format!("{short}"), r#"{"k": 1, "l": []}"#);
        assert_eq!(format!("{short:#}"), format!("{short}"));
        let long = Value::object([("rows", Value::Array(vec![short.clone(); 20]))]);
        let pretty = format!("{long:#}");
        assert_eq!(pretty.lines().count(), 24);
        assert!(pretty.contains("\n    {\"k\": 1, \"l\": []},\n"));
        assert!(pretty.ends_with("\n  ]\n}"));
        assert_eq!(parse(&pretty), Ok(long));
    }

    #[test]
    fn records_render_their_fields_in_declaration_order() {
        let sample = Sample {
            name: "s".into(),
            count: u64::MAX,
            ratio: None,
            tags: vec!["x".into()],
        };
        let text = sample.to_json().to_string();
        assert_eq!(
            text,
            r#"{"name": "s", "count": 18446744073709551615, "ratio": null, "tags": ["x"]}"#
        );
        assert_eq!(parse(&text), Ok(sample.to_json()));
    }

    /// Every character the writer escapes, plus multi-byte ones.
    const ALPHABET: [char; 12] = [
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '\u{1F600}',
    ];

    fn text() -> impl Strategy<Value = String> {
        collection::vec(sample::select(ALPHABET.to_vec()), 0..6)
            .prop_map(|chars| chars.into_iter().collect())
    }

    /// Arbitrary documents: every scalar kind at its edges, and
    /// containers empty, short, and long enough for `{:#}` to break.
    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            bool::ANY.prop_map(Value::Bool),
            prop_oneof![Just(0), Just(u64::MAX), 0..=u64::MAX].prop_map(Value::U64),
            (i64::MIN..0).prop_map(Value::I64),
            (0..=u64::MAX)
                .prop_map(f64::from_bits)
                .prop_filter("finite", |x| x.is_finite())
                .prop_map(Value::F64),
            text().prop_map(Value::String),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                collection::vec(inner.clone(), 0..12).prop_map(Value::Array),
                collection::vec((text(), inner), 0..12).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn values_round_trip_through_both_layouts(value in value()) {
            prop_assert_eq!(parse(&value.to_string()), Ok(value.clone()));
            prop_assert_eq!(parse(&format!("{value:#}")), Ok(value));
        }
    }
}
