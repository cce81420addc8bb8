package schema

// Hooks for the external tests, which need package conform (itself an
// importer of schema) for their corpus.

// Differential compares the scanner with the encoding/xml oracle on
// data: "" when they agree, else how they differ.
var Differential = differential

// Decoded returns the scanner's decoding of data as an opaque value
// that reflect.DeepEqual can compare.
func Decoded(data []byte) (any, error) { return parseSchema(data) }
