"""In-memory filesystem with virtual-time metadata.

Files hold real bytes (so command semantics are testable); the *cost* of
touching them is charged by the kernel through the disk model.  Paths are
POSIX-style; each :class:`FileSystem` belongs to one node/machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import FileNotFound, IsADirectory, NotADirectory


def normalize(path: str, cwd: str = "/") -> str:
    """Resolve ``path`` against ``cwd`` into a normalized absolute path."""
    if not path.startswith("/"):
        path = cwd.rstrip("/") + "/" + path
    parts: list[str] = []
    for seg in path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            if parts:
                parts.pop()
        else:
            parts.append(seg)
    return "/" + "/".join(parts)


@dataclass
class FileNode:
    data: bytearray = field(default_factory=bytearray)
    mtime: float = 0.0

    @property
    def size(self) -> int:
        return len(self.data)


class FileSystem:
    """Flat-namespace filesystem: files plus an explicit directory set."""

    def __init__(self) -> None:
        self.files: dict[str, FileNode] = {}
        self.dirs: set[str] = {"/", "/tmp", "/dev"}

    # -- queries ---------------------------------------------------------------

    def exists(self, path: str) -> bool:
        path = normalize(path)
        return path in self.files or path in self.dirs

    def is_file(self, path: str) -> bool:
        return normalize(path) in self.files

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self.dirs

    def size(self, path: str) -> int:
        return self._node(path).size

    def mtime(self, path: str) -> float:
        return self._node(path).mtime

    def _node(self, path: str) -> FileNode:
        path = normalize(path)
        node = self.files.get(path)
        if node is None:
            if path in self.dirs:
                raise IsADirectory(path)
            raise FileNotFound(path)
        return node

    def listdir(self, path: str) -> list[str]:
        path = normalize(path)
        if path not in self.dirs:
            if path in self.files:
                raise NotADirectory(path)
            raise FileNotFound(path)
        prefix = path.rstrip("/") + "/"
        names = set()
        for p in list(self.files) + list(self.dirs):
            if p != path and p.startswith(prefix):
                rest = p[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    def walk(self) -> Iterator[str]:
        yield from sorted(self.files)

    # -- mutation -----------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = True) -> None:
        path = normalize(path)
        if path in self.files:
            raise NotADirectory(path)
        if parents:
            parts = path.strip("/").split("/")
            for i in range(1, len(parts) + 1):
                self.dirs.add("/" + "/".join(parts[:i]))
        else:
            self.dirs.add(path)

    def _ensure_parent(self, path: str) -> None:
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self.dirs:
            self.mkdir(parent, parents=True)

    def create(self, path: str, data: bytes = b"", mtime: float = 0.0) -> FileNode:
        """Create or truncate ``path`` with ``data``."""
        path = normalize(path)
        if path in self.dirs:
            raise IsADirectory(path)
        self._ensure_parent(path)
        node = FileNode(bytearray(data), mtime)
        self.files[path] = node
        return node

    def open_node(self, path: str, create: bool = False, truncate: bool = False,
                  mtime: float = 0.0) -> FileNode:
        path = normalize(path)
        if path in self.dirs:
            raise IsADirectory(path)
        node = self.files.get(path)
        if node is None:
            if not create:
                raise FileNotFound(path)
            return self.create(path, mtime=mtime)
        if truncate:
            node.data = bytearray()
            node.mtime = mtime
        return node

    def read_bytes(self, path: str) -> bytes:
        return bytes(self._node(path).data)

    def write_bytes(self, path: str, data: bytes, mtime: float = 0.0) -> None:
        self.create(path, data, mtime)

    def unlink(self, path: str) -> None:
        path = normalize(path)
        if path not in self.files:
            raise FileNotFound(path)
        del self.files[path]

    def rename(self, src: str, dst: str) -> None:
        src, dst = normalize(src), normalize(dst)
        node = self._node(src)
        del self.files[src]
        self._ensure_parent(dst)
        self.files[dst] = node
