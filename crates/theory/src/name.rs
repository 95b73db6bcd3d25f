//! Interned names for roles, labels, sorts and recursion variables.
//!
//! Every [`Name`] is made by looking its text up in one process-wide
//! table, which keeps a single entry per distinct text for the life of
//! the process. A name is a pointer to its entry, so copying, comparing
//! and hashing one never touch the text, and [`Name::id`] is a small
//! integer the checkers can store in place of the name.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{LazyLock, Mutex, PoisonError};

/// The one entry of a text in the table; never freed.
struct Entry {
    id: u32,
    text: &'static str,
}

/// Every entry made so far, by text. Ids are handed out in creation
/// order, so an entry's id is the table's size when it was made.
static TABLE: LazyLock<Mutex<HashMap<&'static str, &'static Entry>>> =
    LazyLock::new(Mutex::default);

/// An interned identifier: a participant (`s`, `k`, `t`), a message label
/// (`ready`, `value`), a custom sort or a recursion variable.
///
/// Equal texts are the same name: `==` and hashing compare the entries,
/// [`Ord`] compares the texts, so sorted collections keep text order.
///
/// ```
/// use theory::Name;
///
/// let name = Name::new("ready");
/// assert_eq!(name, Name::from(String::from("ready")));
/// assert_eq!(name.id(), Name::new("ready").id());
/// assert!(Name::new("a") < Name::new("b"));
/// ```
#[derive(Clone, Copy)]
pub struct Name(&'static Entry);

impl Name {
    /// The name of `value`, made on first use.
    pub fn new(value: impl AsRef<str>) -> Self {
        let text = value.as_ref();
        // Every update is one insert, so the table is valid even after a
        // panic elsewhere poisoned the lock.
        let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&entry) = table.get(text) {
            return Self(entry);
        }
        let id = u32::try_from(table.len()).expect("fewer than 2³² names");
        let text: &'static str = Box::leak(text.into());
        let entry: &'static Entry = Box::leak(Box::new(Entry { id, text }));
        table.insert(text, entry);
        Self(entry)
    }

    /// The text of the name.
    pub fn as_str(&self) -> &'static str {
        self.0.text
    }

    /// The name's number, unique within the process: equal ids are equal
    /// names.
    pub fn id(&self) -> u32 {
        self.0.id
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.0.id);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Name {
    fn from(value: &str) -> Self {
        Self::new(value)
    }
}

impl From<String> for Name {
    fn from(value: String) -> Self {
        Self::new(value)
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_by_value() {
        assert_eq!(Name::from("s"), Name::new(String::from("s")));
        assert_ne!(Name::from("s"), Name::from("t"));
    }

    #[test]
    fn one_word_and_one_id_per_text() {
        assert_eq!(std::mem::size_of::<Name>(), 8);
        let (s, t) = (Name::new("name-test-s"), Name::new("name-test-t"));
        assert_ne!(s.id(), t.id());
        assert_eq!(Name::new(String::from("name-test-s")).id(), s.id());
    }

    #[test]
    fn order_is_text_order() {
        // Made in the opposite order to their texts.
        let (b, a) = (Name::new("order-test-b"), Name::new("order-test-a"));
        assert!(a < b);
        let mut names = [b, a];
        names.sort();
        assert_eq!(
            names.map(|name| name.as_str()),
            ["order-test-a", "order-test-b"]
        );
    }

    #[test]
    fn names_made_on_many_threads_agree() {
        let texts: Vec<String> = (0..64).map(|i| format!("thread-test-{i}")).collect();
        let made: Vec<Vec<Name>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| texts.iter().map(Name::new).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for names in &made {
            assert_eq!(names, &made[0]);
        }
        assert!(made[0]
            .iter()
            .zip(&texts)
            .all(|(name, text)| name.as_str() == text));
    }

    #[test]
    fn usable_as_map_key() {
        let mut map = std::collections::HashMap::new();
        map.insert(Name::from("k"), 1);
        assert_eq!(map.get(&Name::from("k")), Some(&1));
    }
}
