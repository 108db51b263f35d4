"""Concrete domain types.

The paper's domains are always finite; a domain object carries the size and,
for binary product domains, the attribute structure needed by marginal and
parity workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DomainError


@dataclass(frozen=True)
class Domain:
    """A flat categorical domain of ``size`` distinct user types.

    Examples
    --------
    >>> grades = Domain(5)
    >>> grades.size
    5
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise DomainError(f"Domain size must be >= 1, got {self.size}")

    def one_hot(self, user_type: int) -> np.ndarray:
        """The indicator vector ``e_u`` for a user type."""
        if not 0 <= user_type < self.size:
            raise DomainError(
                f"user type {user_type} outside domain [0, {self.size})"
            )
        vector = np.zeros(self.size)
        vector[user_type] = 1.0
        return vector

    def data_vector(self, users: np.ndarray) -> np.ndarray:
        """Histogram the raw user types into the data vector ``x``.

        Parameters
        ----------
        users:
            Integer array of user types, each in ``[0, size)``.
        """
        users = np.asarray(users)
        if users.size and (users.min() < 0 or users.max() >= self.size):
            raise DomainError("user types outside the domain")
        return np.bincount(users, minlength=self.size).astype(float)


@dataclass(frozen=True)
class ProductDomain:
    """A product of categorical attributes with arbitrary arities.

    User types are mixed-radix integers with attribute 0 fastest-varying:
    ``u = sum_i u_i * prod_{j < i} sizes[j]``.  ``BinaryDomain`` is the
    special case where every arity is 2.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(size) for size in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise DomainError("ProductDomain needs at least one attribute")
        if any(size < 2 for size in sizes):
            raise DomainError(f"attribute arities must be >= 2, got {sizes}")
        total = 1
        for size in sizes:
            total *= size
            if total > 1 << 30:
                raise DomainError("ProductDomain too large to materialize")

    @property
    def num_attributes(self) -> int:
        return len(self.sizes)

    @property
    def size(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total

    def flat(self) -> Domain:
        """The equivalent flat categorical domain."""
        return Domain(self.size)

    def attribute_values(self, user_type: int) -> np.ndarray:
        """Mixed-radix digits of a user type (attribute 0 first)."""
        if not 0 <= user_type < self.size:
            raise DomainError(
                f"user type {user_type} outside domain [0, {self.size})"
            )
        values = np.empty(self.num_attributes, dtype=np.int64)
        remainder = user_type
        for index, size in enumerate(self.sizes):
            values[index] = remainder % size
            remainder //= size
        return values

    def index_of(self, attributes: np.ndarray) -> int:
        """Inverse of :meth:`attribute_values`."""
        attributes = np.asarray(attributes)
        if attributes.shape != (self.num_attributes,):
            raise DomainError(
                f"expected {self.num_attributes} attribute values, "
                f"got shape {attributes.shape}"
            )
        index, radix = 0, 1
        for value, size in zip(attributes, self.sizes):
            if not 0 <= value < size:
                raise DomainError(f"attribute value {value} outside [0, {size})")
            index += int(value) * radix
            radix *= size
        return index


@dataclass(frozen=True)
class BinaryDomain:
    """The product domain ``{0, 1}^num_attributes`` with ``2^k`` user types.

    User types are indexed by the integer whose binary representation gives
    the attribute values; bit ``j`` (LSB first) is attribute ``j``.
    """

    num_attributes: int

    def __post_init__(self) -> None:
        if self.num_attributes < 1:
            raise DomainError(
                f"BinaryDomain needs >= 1 attribute, got {self.num_attributes}"
            )
        if self.num_attributes > 30:
            raise DomainError(
                "BinaryDomain with more than 2^30 types cannot be materialized"
            )

    @property
    def size(self) -> int:
        """Number of user types, ``2^num_attributes``."""
        return 1 << self.num_attributes

    def flat(self) -> Domain:
        """The equivalent flat categorical domain."""
        return Domain(self.size)

    def attribute_values(self, user_type: int) -> np.ndarray:
        """The 0/1 attribute vector of a user type (LSB-first)."""
        if not 0 <= user_type < self.size:
            raise DomainError(
                f"user type {user_type} outside domain [0, {self.size})"
            )
        bits = (user_type >> np.arange(self.num_attributes)) & 1
        return bits.astype(np.int8)

    def index_of(self, attributes: np.ndarray) -> int:
        """Inverse of :meth:`attribute_values`."""
        attributes = np.asarray(attributes)
        if attributes.shape != (self.num_attributes,):
            raise DomainError(
                f"expected {self.num_attributes} attribute values, "
                f"got shape {attributes.shape}"
            )
        if not np.isin(attributes, (0, 1)).all():
            raise DomainError("attribute values must be 0 or 1")
        return int((attributes.astype(np.int64) << np.arange(self.num_attributes)).sum())

    def all_attribute_values(self) -> np.ndarray:
        """``(size, num_attributes)`` matrix of every type's attribute vector."""
        types = np.arange(self.size)
        return ((types[:, None] >> np.arange(self.num_attributes)[None, :]) & 1).astype(
            np.int8
        )

    def hamming_distance_table(self) -> np.ndarray:
        """``(size, size)`` int64 table of pairwise Hamming distances between
        types."""
        xor = np.arange(self.size)[:, None] ^ np.arange(self.size)[None, :]
        return np.bitwise_count(xor).astype(np.int64)
