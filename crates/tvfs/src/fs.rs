//! The [`FileSystem`] trait — the VFS interface proper.

use crate::{FileAttr, FileType, InodeNo, SetAttr, StatFs, VfsError, VfsResult};

/// Inode number of every file system's root directory.
pub const ROOT_INO: InodeNo = 1;

/// One directory entry as returned by [`FileSystem::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no slashes).
    pub name: String,
    /// Inode the entry refers to.
    pub ino: InodeNo,
    /// Entry type.
    pub kind: FileType,
}

/// Flags for [`crate::Vfs::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// All writes go to end-of-file.
    pub append: bool,
    /// Every write is followed by an fsync (`O_SYNC`).
    pub sync: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_RDWR | O_CREAT`.
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            ..Default::default()
        }
    }
}

/// The VFS interface each file system implements.
///
/// This is the paper's extensibility boundary: a new device type is
/// integrated by mounting its dedicated file system — any `FileSystem`
/// implementor — and registering it with Mux, with no change to either
/// side. Mux itself implements this trait towards applications and calls it
/// on the native file systems below (Figure 1b).
///
/// Semantics follow POSIX where applicable:
///
/// * Files are sparse. Writing at an offset beyond EOF extends the file;
///   the gap reads as zeros and consumes no space.
/// * `unlink` on a directory requires it to be empty (it subsumes `rmdir`).
/// * All methods are safe for concurrent use; implementations lock
///   internally at whatever granularity they choose.
pub trait FileSystem: Send + Sync {
    /// Identifier used in mount tables and reports, e.g. `"novafs"`.
    fn fs_name(&self) -> &str;

    /// Inode of the root directory (conventionally [`ROOT_INO`]).
    fn root_ino(&self) -> InodeNo {
        ROOT_INO
    }

    /// Resolves `name` within directory `parent`.
    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr>;

    /// Reads an inode's attributes.
    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr>;

    /// Applies the requested attribute changes and returns the new
    /// attributes. `size` changes truncate or zero-extend the file.
    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr>;

    /// Creates a file or directory named `name` under `parent`.
    fn create(&self, parent: InodeNo, name: &str, kind: FileType, mode: u32)
        -> VfsResult<FileAttr>;

    /// Removes `name` from `parent`. Directories must be empty.
    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()>;

    /// Moves `parent/name` to `new_parent/new_name`, replacing any existing
    /// regular file at the destination.
    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()>;

    /// Lists a directory.
    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>>;

    /// Reads up to `buf.len()` bytes at `off`; returns bytes read (0 at or
    /// past EOF). Holes read as zeros.
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize>;

    /// Writes `data` at `off`, extending the file if needed; returns bytes
    /// written.
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize>;

    /// Deallocates `[off, off+len)`, which subsequently reads as zeros.
    /// The logical file size is unchanged.
    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()>;

    /// Returns the first allocated extent `(start, len)` at or after `off`,
    /// or `None` if only holes remain (`SEEK_DATA`).
    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>>;

    /// Persists this inode's data and metadata.
    fn fsync(&self, ino: InodeNo) -> VfsResult<()>;

    /// Persists every inode in `inos`, as one durability call where the
    /// file system can order them inside a single commit.
    ///
    /// On `Ok`, every named inode is durable. A crash never leaves a later
    /// inode's new state durable while an earlier one's is not, so a
    /// caller may list data first and the record that names it last. The
    /// default fsyncs them one by one, in order.
    fn fsync_many(&self, inos: &[InodeNo]) -> VfsResult<()> {
        inos.iter().try_for_each(|&ino| self.fsync(ino))
    }

    /// Persists everything (`syncfs`).
    ///
    /// The ordering of [`FileSystem::fsync_many`] holds here too: a crash
    /// never leaves data written later durable while data written earlier
    /// is not, so a caller may write the record that names its data last
    /// and make both durable with this one call.
    fn sync(&self) -> VfsResult<()>;

    /// File-system statistics.
    fn statfs(&self) -> VfsResult<StatFs>;
}

/// Walks `path` components from the root of `fs`, returning the final
/// attributes. `path` must already be normalized (see [`crate::normalize`]).
pub fn resolve_path(fs: &dyn FileSystem, path: &str) -> VfsResult<FileAttr> {
    let mut cur = fs.getattr(fs.root_ino())?;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        if !cur.is_dir() {
            return Err(VfsError::NotDir);
        }
        cur = fs.lookup(cur.ino, comp)?;
    }
    Ok(cur)
}

/// Resolves the parent directory of `path` and returns `(parent_attr,
/// final_component)`. Fails with [`VfsError::InvalidArgument`] on the root
/// path.
pub fn resolve_parent<'p>(fs: &dyn FileSystem, path: &'p str) -> VfsResult<(FileAttr, &'p str)> {
    let (dir, name) = crate::split_parent(path)
        .ok_or_else(|| VfsError::InvalidArgument("path has no parent".into()))?;
    let parent = resolve_path(fs, dir)?;
    if !parent.is_dir() {
        return Err(VfsError::NotDir);
    }
    Ok((parent, name))
}
