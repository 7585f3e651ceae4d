"""The SQLite substrate shared by the shard store and the publication store.

:class:`SQLiteStore` is one stdlib-SQLite database file in a directory:
autocommit connection (every transaction boundary is explicit, so every
commit is a deliberate durability point, never a driver side effect),
WAL journaling with ``synchronous=NORMAL``, an idempotent schema script,
a ``meta`` key/value table, and an optional cross-process advisory lock.

The lock is ``BEGIN IMMEDIATE`` on a sibling (otherwise empty) lock
database held until :meth:`SQLiteStore.close`: SQLite allows exactly one
pending write transaction per database file, tracks it correctly across
threads and processes, and abandons it with the holder's process, so
there are no stale locks to clean up.

A *reader* open (``create=False``) is the query-side counterpart: it
connects to an existing database file and runs nothing else, so reading
a store that is not there creates nothing, and it remembers the file's
identity so a long-lived reader can tell when the path was replaced.

Subclasses (:class:`~repro.stream.store.ShardStore`,
:class:`~repro.pubstore.PublicationStore`) name their file, lock file,
schema, fault-injection point and error wording.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import faults
from repro.core import deadline
from repro.exceptions import ParameterError, StoreError

PathLike = Union[str, Path]

#: Default seconds an exclusive open waits for the advisory lock before
#: failing with :class:`~repro.exceptions.StoreError`.
LOCK_TIMEOUT = 30.0


class SQLiteStore:
    """One SQLite database file under ``store_dir`` (see the module docstring).

    ``exclusive=True`` acquires the advisory lock, waiting up to
    ``lock_timeout`` seconds; plain opens are lock-free.
    ``create=False`` opens a *reader*: it connects to an existing
    database file only (no directory, no file, no pragma, no schema
    script) and the connection may be handed between threads, one user
    at a time.  Every failure to create, open or lock the database
    raises :class:`~repro.exceptions.StoreError`.  Use as a context
    manager (or call :meth:`close`).
    """

    #: Database file name inside the store directory.
    DB_NAME = ""
    #: Advisory lock file name next to the database.
    LOCK_NAME = ""
    #: Idempotent schema script run on every open.
    SCHEMA = ""
    #: Fault-injection / deadline point checked before the open.
    OPEN_POINT = ""
    #: How errors name the store (``cannot open <KIND> <path>``).
    KIND = ""
    #: How errors name the store directory (``cannot create <DIR_KIND> directory``).
    DIR_KIND = ""
    #: Lock-timeout message; formatted with ``path`` and ``timeout``.
    LOCK_BUSY = ""

    def __init__(
        self,
        store_dir: PathLike,
        *,
        exclusive: bool = False,
        lock_timeout: float = LOCK_TIMEOUT,
        create: bool = True,
    ):
        faults.check(self.OPEN_POINT)
        deadline.check(self.OPEN_POINT)
        self.directory = Path(store_dir)
        self.path = self.directory / self.DB_NAME
        self._lock_db: Optional[sqlite3.Connection] = None
        self._identity: Optional[tuple] = None
        if not create:
            if exclusive:
                raise ParameterError(
                    "a reader open (create=False) cannot take the writer lock"
                )
            self._open_reader()
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create {self.DIR_KIND} directory {store_dir}: {exc}"
            ) from exc
        if exclusive:
            self._acquire_lock(lock_timeout)
        try:
            self._db = sqlite3.connect(self.path, isolation_level=None)
        except sqlite3.Error as exc:
            self._release_lock()
            raise StoreError(f"cannot open {self.KIND} {self.path}: {exc}") from exc
        try:
            # WAL + synchronous=NORMAL: commits stay atomic but no longer
            # fsync individually -- a power loss may roll a store back to
            # an earlier committed state, which both stores absorb by
            # design (a delta re-applies or no-ops via its delta_id, and
            # a publication refresh simply runs again).  An application
            # crash loses nothing.
            self._db.execute("PRAGMA journal_mode=WAL").fetchone()
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.executescript(self.SCHEMA)
        except sqlite3.Error as exc:
            # Never abandon a half-opened connection: a leaked handle also
            # pins the WAL lock, and opens sit in fault-injection retry
            # loops that would leak one per failed attempt.
            self._db.close()
            self._release_lock()
            raise StoreError(f"cannot open {self.KIND} {self.path}: {exc}") from exc

    def _open_reader(self) -> None:
        """Connect to the existing database file, creating nothing.

        Records the file's ``(st_dev, st_ino)`` *before* connecting, so a
        file swapped in between can only make :meth:`replaced` answer
        ``True`` too early (one needless reopen), never ``False`` late.
        """
        try:
            self._identity = self._file_identity()
            self._db = sqlite3.connect(
                f"{self.path.absolute().as_uri()}?mode=rw",
                uri=True,
                isolation_level=None,
                check_same_thread=False,
            )
        except (OSError, sqlite3.Error) as exc:
            if not self.path.exists():
                raise self._missing_error() from None
            raise StoreError(f"cannot open {self.KIND} {self.path}: {exc}") from exc

    def _file_identity(self) -> tuple:
        """``(st_dev, st_ino)`` of the database file now at :attr:`path`."""
        stat = self.path.stat()
        return stat.st_dev, stat.st_ino

    def _missing_error(self) -> StoreError:
        """What a reader open of a path with no database file raises."""
        return StoreError(f"{self.KIND} {self.path} does not exist")

    def replaced(self) -> bool:
        """Whether a reader's file was deleted or replaced since it opened.

        A reader holds the file it opened even after the path is
        removed or pointed at a rebuilt store, so a long-lived reader
        must check this before trusting its answers.  Creating opens
        do not track their file and always answer ``False``.
        """
        if self._identity is None:
            return False
        try:
            return self._file_identity() != self._identity
        except OSError:
            return True

    def _acquire_lock(self, timeout: float) -> None:
        """Take the advisory lock, waiting up to ``timeout`` seconds.

        The wait loop honors the ambient deadline so a deadlined request
        fails fast instead of burning its budget queueing on the lock.
        """
        try:
            self._lock_db = sqlite3.connect(
                self.directory / self.LOCK_NAME, isolation_level=None
            )
            self._lock_db.execute("PRAGMA busy_timeout=100")
            give_up = time.monotonic() + timeout
            while True:
                try:
                    self._lock_db.execute("BEGIN IMMEDIATE")
                    return
                except sqlite3.OperationalError as exc:
                    if "lock" not in str(exc) and "busy" not in str(exc):
                        raise
                    deadline.check(self.OPEN_POINT)
                    if time.monotonic() >= give_up:
                        raise StoreError(
                            self.LOCK_BUSY.format(path=self.path, timeout=timeout)
                        ) from None
        except sqlite3.Error as exc:
            self._release_lock()
            raise StoreError(f"cannot lock {self.KIND} {self.path}: {exc}") from exc
        except BaseException:
            self._release_lock()
            raise

    def _release_lock(self) -> None:
        """Drop the advisory lock (no-op for plain opens)."""
        if self._lock_db is None:
            return
        try:
            self._lock_db.close()  # closing rolls back the open transaction
        except sqlite3.Error:  # pragma: no cover - defensive
            pass
        self._lock_db = None

    # -- lifecycle ------------------------------------------------------- #
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the database connection and release the advisory lock."""
        self._db.close()
        self._release_lock()

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """One write transaction: commit on success, roll back on any exception."""
        self._db.execute("BEGIN IMMEDIATE")
        try:
            yield self._db
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    # -- meta ------------------------------------------------------------ #
    def _meta(self, key: str) -> Optional[str]:
        row = self._db.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
        )


__all__ = ["LOCK_TIMEOUT", "SQLiteStore"]
