//! Generator functions: library-provided kernel bodies, organized by library.
//!
//! To use Diffuse, a library developer registers a *library* (a namespace
//! such as `dense` or `sparse`) and then one *generator function* per task
//! kind inside it (Section 6.2). A generator returns the kernel body for that
//! task; the Diffuse core invokes it when building the module for a fused
//! task and when executing single tasks functionally.
//!
//! Task kinds are **namespaced**: a [`TaskKind`] is a `(LibraryId, op index)`
//! pair, so independently written libraries can both register an `add`
//! operation without sharing or clobbering a kind. Each operation also
//! declares a [`TaskSignature`] — the argument roles and scalar arity the
//! kernel expects — which the submission layer validates launches against.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ir::KernelModule;

/// Identifies a registered library (a namespace of task kinds).
///
/// Library ids are assigned sequentially by the [`GeneratorRegistry`] they
/// were registered in; two instances of the same library registered twice get
/// two distinct ids, so their operations can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LibraryId(pub u16);

impl std::fmt::Display for LibraryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lib{}", self.0)
    }
}

/// Identifies a task kind (one library operation such as `ADD` or `SPMV`),
/// scoped to the library that registered it.
///
/// The pair packs losslessly into a `u32` ([`TaskKind::encode`]), which is
/// what [`ir::IndexTask`](../ir) carries through the fusion analyses — the
/// canonical window and fingerprint machinery see an opaque integer and two
/// ops from different libraries can never canonicalize to the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskKind {
    /// The library that registered the operation.
    pub library: LibraryId,
    /// Index of the operation within its library, in registration order.
    pub op: u16,
}

impl TaskKind {
    /// Packs the kind into the `u32` carried by `ir::IndexTask`.
    pub fn encode(self) -> u32 {
        ((self.library.0 as u32) << 16) | self.op as u32
    }

    /// Recovers the kind from its encoded form.
    pub fn decode(raw: u32) -> TaskKind {
        TaskKind {
            library: LibraryId((raw >> 16) as u16),
            op: (raw & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task_kind({}:{})", self.library.0, self.op)
    }
}

/// The role one store argument plays in an operation's signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSpec {
    /// The argument is read.
    Read,
    /// The argument is written.
    Write,
    /// The argument is read and written.
    ReadWrite,
    /// The argument is reduced to (with any reduction operator).
    Reduce,
}

/// The declared shape of an operation: argument roles in kernel-buffer order
/// plus the number of scalar parameters.
///
/// Signatures let the submission layer reject malformed launches (wrong
/// arity, a read where the kernel writes, a missing scalar) at submission
/// time instead of deep inside the kernel pipeline.
///
/// ```
/// use kernel::{ArgSpec, TaskSignature};
///
/// // out = a + b
/// let sig = TaskSignature::new().read().read().write();
/// assert_eq!(sig.args(), &[ArgSpec::Read, ArgSpec::Read, ArgSpec::Write]);
/// assert_eq!(sig.num_scalars(), 0);
/// // out = a * param
/// let sig = TaskSignature::new().read().write().scalars(1);
/// assert_eq!(sig.num_scalars(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskSignature {
    args: Vec<ArgSpec>,
    scalars: usize,
}

impl TaskSignature {
    /// An empty signature (no arguments, no scalars).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an argument with the given role.
    pub fn arg(mut self, spec: ArgSpec) -> Self {
        self.args.push(spec);
        self
    }

    /// Appends a read argument.
    pub fn read(self) -> Self {
        self.arg(ArgSpec::Read)
    }

    /// Appends a written argument.
    pub fn write(self) -> Self {
        self.arg(ArgSpec::Write)
    }

    /// Appends a read-write argument.
    pub fn read_write(self) -> Self {
        self.arg(ArgSpec::ReadWrite)
    }

    /// Appends a reduction argument.
    pub fn reduce(self) -> Self {
        self.arg(ArgSpec::Reduce)
    }

    /// Sets the number of scalar parameters.
    pub fn scalars(mut self, n: usize) -> Self {
        self.scalars = n;
        self
    }

    /// The declared argument roles, in kernel-buffer order.
    pub fn args(&self) -> &[ArgSpec] {
        &self.args
    }

    /// The declared scalar-parameter count.
    pub fn num_scalars(&self) -> usize {
        self.scalars
    }
}

/// Arguments passed to a generator function.
///
/// Buffer ids `0..buffer_lens.len()` refer to the task's store arguments in
/// argument order; the generator may add task-local buffers beyond that range
/// via [`KernelModule::add_local`].
///
/// Generators see buffer lengths, never scalar values; kernels read values
/// through `Param`. That is what lets the Diffuse core replay one compiled
/// kernel across every value of a task's scalars (the memo keys on their
/// count).
#[derive(Debug, Clone, Copy)]
pub struct GenArgs<'a> {
    /// Element count of each store argument, in argument order.
    pub buffer_lens: &'a [usize],
}

/// A generator function: produces a kernel module describing one task kind's
/// computation over its arguments. Generators see buffer lengths, never
/// scalar values (see [`GenArgs`]).
pub type GeneratorFn = Arc<dyn Fn(&GenArgs<'_>) -> KernelModule + Send + Sync>;

/// One registered operation: its name, declared signature and generator.
struct OpEntry {
    name: String,
    signature: TaskSignature,
    generator: GeneratorFn,
}

/// One registered library: its name and operations in registration order.
struct LibraryEntry {
    name: String,
    ops: Vec<OpEntry>,
    by_name: HashMap<String, u16>,
}

/// Registry of libraries and their generator functions, keyed by namespaced
/// task kind.
#[derive(Default)]
pub struct GeneratorRegistry {
    libraries: Vec<LibraryEntry>,
}

impl std::fmt::Debug for GeneratorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<String> = self
            .libraries
            .iter()
            .flat_map(|lib| lib.ops.iter().map(move |op| format!("{}.{}", lib.name, op.name)))
            .collect();
        names.sort();
        f.debug_struct("GeneratorRegistry")
            .field("tasks", &names)
            .finish()
    }
}

impl GeneratorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a library namespace and returns its id. Registering the same
    /// name twice creates two distinct libraries (two instances of a library
    /// over one context never collide).
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` libraries are registered.
    pub fn register_library(&mut self, name: impl Into<String>) -> LibraryId {
        let id = u16::try_from(self.libraries.len()).expect("too many libraries registered");
        self.libraries.push(LibraryEntry {
            name: name.into(),
            ops: Vec::new(),
            by_name: HashMap::new(),
        });
        LibraryId(id)
    }

    /// Registers an operation in `library` under `name` with a declared
    /// signature, returning its namespaced kind. Op indices are assigned in
    /// registration order.
    ///
    /// # Panics
    ///
    /// Panics if `library` is unknown, if `name` is already registered in the
    /// *same* library (the same name in a different library is fine), or if
    /// the library exceeds `u16::MAX` operations.
    pub fn register_op(
        &mut self,
        library: LibraryId,
        name: impl Into<String>,
        signature: TaskSignature,
        generator: GeneratorFn,
    ) -> TaskKind {
        let name = name.into();
        let lib = self
            .libraries
            .get_mut(library.0 as usize)
            .unwrap_or_else(|| panic!("unknown library {library}"));
        assert!(
            !lib.by_name.contains_key(&name),
            "operation `{}` is already registered in library `{}`",
            name,
            lib.name
        );
        let op = u16::try_from(lib.ops.len())
            .unwrap_or_else(|_| panic!("library `{}` has too many operations", lib.name));
        lib.by_name.insert(name.clone(), op);
        lib.ops.push(OpEntry {
            name,
            signature,
            generator,
        });
        TaskKind { library, op }
    }

    /// Registers an operation built from a plain function or closure.
    ///
    /// # Panics
    ///
    /// As [`GeneratorRegistry::register_op`].
    pub fn register_op_fn<F>(
        &mut self,
        library: LibraryId,
        name: impl Into<String>,
        signature: TaskSignature,
        generator: F,
    ) -> TaskKind
    where
        F: Fn(&GenArgs<'_>) -> KernelModule + Send + Sync + 'static,
    {
        self.register_op(library, name, signature, Arc::new(generator))
    }

    fn op(&self, kind: TaskKind) -> Option<&OpEntry> {
        self.libraries
            .get(kind.library.0 as usize)
            .and_then(|lib| lib.ops.get(kind.op as usize))
    }

    /// The name of a registered library.
    pub fn library_name(&self, library: LibraryId) -> Option<&str> {
        self.libraries.get(library.0 as usize).map(|l| l.name.as_str())
    }

    /// Ids and names of every registered library, in registration order.
    pub fn libraries(&self) -> impl Iterator<Item = (LibraryId, &str)> {
        self.libraries
            .iter()
            .enumerate()
            .map(|(i, l)| (LibraryId(i as u16), l.name.as_str()))
    }

    /// The unqualified operation name of a task kind, if registered.
    pub fn name(&self, kind: TaskKind) -> Option<&str> {
        self.op(kind).map(|op| op.name.as_str())
    }

    /// The `library.op` qualified name of a task kind, if registered.
    pub fn qualified_name(&self, kind: TaskKind) -> Option<String> {
        let lib = self.libraries.get(kind.library.0 as usize)?;
        let op = lib.ops.get(kind.op as usize)?;
        Some(format!("{}.{}", lib.name, op.name))
    }

    /// The declared signature of a task kind, if registered.
    pub fn signature(&self, kind: TaskKind) -> Option<&TaskSignature> {
        self.op(kind).map(|op| &op.signature)
    }

    /// Looks up an operation by name within a library.
    pub fn lookup(&self, library: LibraryId, name: &str) -> Option<TaskKind> {
        let lib = self.libraries.get(library.0 as usize)?;
        lib.by_name.get(name).map(|&op| TaskKind { library, op })
    }

    /// Whether a generator is registered for the kind.
    pub fn contains(&self, kind: TaskKind) -> bool {
        self.op(kind).is_some()
    }

    /// Number of registered generators across all libraries.
    pub fn len(&self) -> usize {
        self.libraries.iter().map(|l| l.ops.len()).sum()
    }

    /// Whether the registry has no registered generators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Invokes the generator for `kind`, returning `None` if no generator is
    /// registered.
    pub fn generate(&self, kind: TaskKind, args: &GenArgs<'_>) -> Option<KernelModule> {
        self.op(kind).map(|op| (op.generator)(args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ir::{BufferId, BufferRole};

    fn add_generator(args: &GenArgs<'_>) -> KernelModule {
        assert_eq!(args.buffer_lens.len(), 3);
        let mut m = KernelModule::new(3);
        m.set_role(BufferId(2), BufferRole::Output);
        let mut b = LoopBuilder::new("add", BufferId(2));
        let (x, y) = (b.load(BufferId(0)), b.load(BufferId(1)));
        let s = b.add(x, y);
        b.store(BufferId(2), s);
        m.push_loop(b.finish());
        m
    }

    fn add_signature() -> TaskSignature {
        TaskSignature::new().read().read().write()
    }

    #[test]
    fn register_and_generate() {
        let mut reg = GeneratorRegistry::new();
        assert!(reg.is_empty());
        let lib = reg.register_library("testlib");
        let kind = reg.register_op_fn(lib, "add", add_signature(), add_generator);
        assert_eq!(reg.len(), 1);
        assert!(reg.contains(kind));
        assert_eq!(reg.name(kind), Some("add"));
        assert_eq!(reg.qualified_name(kind), Some("testlib.add".to_string()));
        assert_eq!(reg.signature(kind), Some(&add_signature()));
        assert_eq!(reg.lookup(lib, "add"), Some(kind));
        assert_eq!(reg.lookup(lib, "mul"), None);
        let args = GenArgs {
            buffer_lens: &[4, 4, 4],
        };
        let module = reg.generate(kind, &args).expect("generator registered");
        assert_eq!(module.num_loop_stages(), 1);
        let unknown = TaskKind { library: LibraryId(9), op: 0 };
        assert!(reg.generate(unknown, &args).is_none());
    }

    #[test]
    fn kinds_are_scoped_to_their_library() {
        let mut reg = GeneratorRegistry::new();
        let a = reg.register_library("a");
        let b = reg.register_library("b");
        // The same op name in two libraries yields two distinct kinds.
        let ka = reg.register_op_fn(a, "add", add_signature(), add_generator);
        let kb = reg.register_op_fn(b, "add", add_signature(), add_generator);
        assert_ne!(ka, kb);
        assert_ne!(ka.encode(), kb.encode());
        assert_eq!(reg.qualified_name(ka), Some("a.add".to_string()));
        assert_eq!(reg.qualified_name(kb), Some("b.add".to_string()));
    }

    #[test]
    fn encode_round_trips() {
        let kind = TaskKind { library: LibraryId(7), op: 513 };
        assert_eq!(TaskKind::decode(kind.encode()), kind);
        assert_eq!(TaskKind::decode(0), TaskKind { library: LibraryId(0), op: 0 });
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_op_in_one_library_panics() {
        let mut reg = GeneratorRegistry::new();
        let lib = reg.register_library("dup");
        reg.register_op_fn(lib, "add", add_signature(), add_generator);
        reg.register_op_fn(lib, "add", add_signature(), add_generator);
    }

    #[test]
    fn same_library_name_twice_is_two_namespaces() {
        let mut reg = GeneratorRegistry::new();
        let a = reg.register_library("sparse");
        let b = reg.register_library("sparse");
        assert_ne!(a, b);
        // Both instances can register the same op without clobbering.
        let ka = reg.register_op_fn(a, "spmv", add_signature(), add_generator);
        let kb = reg.register_op_fn(b, "spmv", add_signature(), add_generator);
        assert_ne!(ka, kb);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn debug_lists_qualified_names() {
        let mut reg = GeneratorRegistry::new();
        let lib = reg.register_library("mylib");
        reg.register_op_fn(lib, "mult", add_signature(), add_generator);
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("mylib.mult"));
    }

    #[test]
    fn libraries_iterates_in_registration_order() {
        let mut reg = GeneratorRegistry::new();
        let a = reg.register_library("first");
        let b = reg.register_library("second");
        let listed: Vec<_> = reg.libraries().collect();
        assert_eq!(listed, vec![(a, "first"), (b, "second")]);
        assert_eq!(reg.library_name(a), Some("first"));
        assert_eq!(reg.library_name(LibraryId(5)), None);
    }
}
