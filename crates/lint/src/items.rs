//! The scoped item tree the parser produces: functions, modules, impls,
//! traits, and `unsafe` blocks, each with token/line spans and their
//! attributes. Rule families that need scope facts — the U-series unsafe
//! audit and the C-series call graph — walk this tree instead of the flat
//! token stream. Which items are test-only is decided once, by the token
//! mask ([`crate::rules::test_mask`]), not by this tree.

/// What kind of scope-bearing item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, associated, or nested), including `unsafe fn`.
    Fn,
    /// `mod name { ... }` (inline only; `mod name;` carries no scope).
    Mod,
    /// `impl ... { ... }` (inherent or trait impl).
    Impl,
    /// `trait ... { ... }`.
    Trait,
    /// An `unsafe { ... }` block inside a function body.
    UnsafeBlock,
}

/// One attribute (`#[...]`), reduced to the identifier and string-literal
/// atoms the rules match on (`cfg`, `test`, `target_feature`, `"avx2"`...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// 1-based line of the opening `#`.
    pub line: u32,
    /// Identifiers inside the attribute, in order.
    pub idents: Vec<String>,
    /// String literals inside the attribute, in order.
    pub strs: Vec<String>,
}

impl Attr {
    /// True for `#[target_feature(enable = "avx2")]`.
    pub fn enables_avx2(&self) -> bool {
        self.idents.first().map(String::as_str) == Some("target_feature")
            && self.strs.iter().any(|s| s == "avx2")
    }
}

/// One node of the item tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Node kind.
    pub kind: ItemKind,
    /// Item name (`fn`/`mod`/`trait` name); empty for impls and unsafe
    /// blocks.
    pub name: String,
    /// 1-based line the item starts on (the first modifier/keyword token,
    /// not its attributes).
    pub line: u32,
    /// 1-based line of the `unsafe` keyword, when [`Self::is_unsafe`].
    pub unsafe_line: u32,
    /// Token-index span `[start, end)` in the lexed stream, covering the
    /// whole item including its body.
    pub span: (usize, usize),
    /// For a [`ItemKind::Fn`] with a body: the token span `[start, end)`
    /// strictly inside its braces, ready for [`crate::parser::parse_body`].
    /// `None` for bodiless declarations and non-fn items.
    pub body_span: Option<(usize, usize)>,
    /// Attributes attached to the item (empty for unsafe blocks).
    pub attrs: Vec<Attr>,
    /// True for `unsafe fn` / `unsafe impl` / `unsafe trait` and for every
    /// [`ItemKind::UnsafeBlock`].
    pub is_unsafe: bool,
    /// Nested items (fns in impls/mods, unsafe blocks in fn bodies, ...).
    pub children: Vec<Item>,
}

impl Item {
    /// True if an attribute is `#[target_feature(enable = "avx2")]`.
    pub fn is_avx2_kernel(&self) -> bool {
        self.attrs.iter().any(Attr::enables_avx2)
    }

    /// Depth-first walk over this item and all descendants.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Item)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }
}

/// The parse result for one file: top-level items (the tree) plus any
/// inner `#![...]` attributes of the file itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Inner attributes (`#![forbid(unsafe_code)]`, `#![cfg(test)]`, ...).
    pub inner_attrs: Vec<Attr>,
}

impl ItemTree {
    /// Depth-first walk over every item in the tree.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Item)) {
        for item in &self.items {
            item.walk(visit);
        }
    }

    /// Collects every node satisfying `pred`, in source order.
    pub fn collect(&self, pred: impl Fn(&Item) -> bool) -> Vec<&Item> {
        let mut out = Vec::new();
        self.walk(&mut |item| {
            if pred(item) {
                out.push(item);
            }
        });
        out
    }
}
