// Package field implements P2G's central data abstraction: multi-dimensional,
// typed, write-once fields with aging and implicit resizing.
//
// A Field is a global, rank-N array of elements. Every element position may be
// written exactly once per age; storing to the same position again requires a
// higher age (the paper's "aging" mechanism, which turns cyclic programs into
// an unrolled acyclic execution). Extents are not fixed up front: storing past
// the current extent grows the field (the paper's "implicit resizing").
//
// Fields are safe for concurrent use. The runtime guarantees that an element
// is only fetched after it has been stored, so readers never observe a
// half-written element; the locking here protects the field's metadata and
// backing storage across concurrent stores and resizes.
package field

import "fmt"

// Kind enumerates the element types a field or local array can hold.
type Kind uint8

// Element kinds. Any holds an arbitrary Go value and is used by native Go
// kernels that pass rich payloads (e.g. an 8x8 macroblock) through a field.
const (
	Invalid Kind = iota
	Int32
	Int64
	Float32
	Float64
	Uint8
	Bool
	String
	Any
)

var kindNames = [...]string{
	Invalid: "invalid",
	Int32:   "int32",
	Int64:   "int64",
	Float32: "float32",
	Float64: "float64",
	Uint8:   "uint8",
	Bool:    "bool",
	String:  "string",
	Any:     "any",
}

// String returns the kernel-language spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName resolves a kernel-language type name ("int32", "float64", ...)
// to its Kind. It returns Invalid for unknown names.
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name && Kind(k) != Invalid {
			return Kind(k)
		}
	}
	return Invalid
}

// Integer reports whether the kind is an integer type.
func (k Kind) Integer() bool {
	switch k {
	case Int32, Int64, Uint8:
		return true
	}
	return false
}

// Float reports whether the kind is a floating-point type.
func (k Kind) Float() bool {
	return k == Float32 || k == Float64
}
