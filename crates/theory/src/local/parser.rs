//! Textual parser for local session types.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! T      := "end" | "rec" IDENT "." T | action "." T
//!         | "+" "{" action "." T ("," action "." T)* "}"
//!         | "&" "{" action "." T ("," action "." T)* "}"
//!         | IDENT                                   (recursion variable)
//! action := IDENT ("!" | "?") IDENT ("(" IDENT? ")")?
//! ```

use std::fmt;
use std::str::FromStr;

use crate::local::{LocalBranch, LocalType};
use crate::name::Name;
use crate::sort::Sort;

/// Error produced when a local type fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input at which the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses the textual form of a local session type.
///
/// ```
/// use theory::local;
///
/// let t = local::parse("rec x . s!ready . s?value(i32) . x").unwrap();
/// assert_eq!(t.to_string(), "rec x.s!ready.s?value(i32).x");
/// ```
pub fn parse(input: &str) -> Result<LocalType, ParseError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        position: 0,
    };
    let t = parser.parse_type()?;
    parser.skip_ws();
    if parser.position != parser.input.len() {
        return Err(parser.error("trailing input after type"));
    }
    Ok(t)
}

struct Parser<'a> {
    input: &'a [u8],
    position: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.position,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .input
            .get(self.position)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.position += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.position).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.position;
        while self
            .input
            .get(self.position)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.position += 1;
        }
        if self.position == start {
            return Err(self.error("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.position])
            .expect("ascii idents are valid utf-8")
            .to_owned())
    }

    fn parse_type(&mut self) -> Result<LocalType, ParseError> {
        match self.peek() {
            Some(b'+') => {
                self.position += 1;
                self.parse_choice(b'!')
            }
            Some(b'&') => {
                self.position += 1;
                self.parse_choice(b'?')
            }
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                let word = self.ident()?;
                match word.as_str() {
                    "end" => Ok(LocalType::End),
                    "rec" => {
                        let var = self.ident()?;
                        self.eat(b'.')?;
                        let body = self.parse_type()?;
                        Ok(LocalType::rec(var, body))
                    }
                    _ => match self.peek() {
                        Some(op @ (b'!' | b'?')) => {
                            self.position += 1;
                            let (label, sort) = self.parse_label_sort()?;
                            self.eat(b'.')?;
                            let continuation = self.parse_type()?;
                            let branch = LocalBranch {
                                label,
                                sort,
                                continuation,
                            };
                            Ok(if op == b'!' {
                                LocalType::Select {
                                    peer: Name::from(word),
                                    branches: vec![branch],
                                }
                            } else {
                                LocalType::Branch {
                                    peer: Name::from(word),
                                    branches: vec![branch],
                                }
                            })
                        }
                        // A bare identifier is a recursion variable.
                        _ => Ok(LocalType::Var(Name::from(word))),
                    },
                }
            }
            _ => Err(self.error("expected a local type")),
        }
    }

    fn parse_label_sort(&mut self) -> Result<(Name, Sort), ParseError> {
        let label = Name::from(self.ident()?);
        let sort = if self.peek() == Some(b'(') {
            self.position += 1;
            let sort = if self.peek() == Some(b')') {
                Sort::Unit
            } else {
                Sort::from_str(&self.ident()?).expect("sort parsing is infallible")
            };
            self.eat(b')')?;
            sort
        } else {
            Sort::Unit
        };
        Ok((label, sort))
    }

    /// Parses `{ p OP l1.T1, p OP l2.T2, ... }` where `OP` fixed by caller.
    fn parse_choice(&mut self, op: u8) -> Result<LocalType, ParseError> {
        self.eat(b'{')?;
        let mut peer: Option<Name> = None;
        let mut branches = Vec::new();
        loop {
            let role = Name::from(self.ident()?);
            match &peer {
                None => peer = Some(role),
                Some(existing) if *existing == role => {}
                Some(existing) => {
                    return Err(self.error(format!(
                        "choice mixes peers {existing} and {role}; directed choice requires one"
                    )))
                }
            }
            self.eat(op)?;
            let (label, sort) = self.parse_label_sort()?;
            self.eat(b'.')?;
            let continuation = self.parse_type()?;
            branches.push(LocalBranch {
                label,
                sort,
                continuation,
            });
            match self.peek() {
                Some(b',') => {
                    self.position += 1;
                }
                Some(b'}') => {
                    self.position += 1;
                    break;
                }
                _ => return Err(self.error("expected `,` or `}` in choice")),
            }
        }
        let peer = peer.expect("at least one branch parsed");
        Ok(if op == b'!' {
            LocalType::Select { peer, branches }
        } else {
            LocalType::Branch { peer, branches }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_streaming_source() {
        let t = parse("rec x . t?ready . +{ t!value(i32).x, t!stop.end }").unwrap();
        assert_eq!(
            t,
            LocalType::rec(
                "x",
                LocalType::receive(
                    "t",
                    "ready",
                    Sort::Unit,
                    LocalType::select(
                        "t",
                        [
                            ("value".into(), Sort::I32, LocalType::Var("x".into())),
                            ("stop".into(), Sort::Unit, LocalType::End),
                        ],
                    ),
                ),
            )
        );
    }

    #[test]
    fn parses_double_buffering_kernel() {
        let t = parse("rec x . s!ready . s?value(i32) . t?ready . t!value(i32) . x").unwrap();
        assert_eq!(
            t.to_string(),
            "rec x.s!ready.s?value(i32).t?ready.t!value(i32).x"
        );
    }

    #[test]
    fn round_trips_display() {
        for text in [
            "end",
            "rec x.p!a.x",
            "&{p?a.end, p?b.rec y.p!c.y}",
            "+{p!a(i32).end, p!b.end}",
        ] {
            let parsed = parse(text).unwrap();
            assert_eq!(parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn rejects_mixed_peer_choice() {
        assert!(parse("+{p!a.end, q!b.end}").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("end end").is_err());
    }
}
