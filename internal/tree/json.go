package tree

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dataset"
)

// modelJSON is the one document shape: a schema plus either a single tree
// under "root" (Tree.Encode) or every tree's root under "trees"
// (Forest.Encode).
type modelJSON struct {
	Schema *dataset.Schema `json:"schema"`
	Root   *Node           `json:"root,omitempty"`
	Trees  []*Node         `json:"trees"`
}

// Encode writes the tree as one line of compact JSON.
func (t *Tree) Encode(w io.Writer) error { return encode(w, t) }

// Encode writes the forest as one line of compact JSON: the schema once, then every
// tree's root under "trees".
func (f *Forest) Encode(w io.Writer) error {
	doc := modelJSON{Schema: f.Schema}
	for _, t := range f.Trees {
		doc.Trees = append(doc.Trees, t.Root)
	}
	return encode(w, doc)
}

func encode(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("tree: encoding JSON: %w", err)
	}
	return nil
}

// DecodeModel is the single model parser: it reads a document holding
// exactly one of "root" and "trees" in one streaming pass, validates it
// (Forest.Validate), and returns the model as a Forest — a single tree is a
// forest of one. Every byte that enters as a model — an upload, a -model
// file, a checkpoint, the TCP hand-off — comes through here.
func DecodeModel(r io.Reader) (*Forest, error) {
	var doc modelJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tree: decoding model JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("tree: data after the model document")
	}
	roots := doc.Trees
	switch {
	case doc.Root != nil && doc.Trees != nil:
		return nil, fmt.Errorf(`tree: model document has both "root" and "trees"`)
	case doc.Root != nil:
		roots = []*Node{doc.Root}
	case doc.Trees == nil:
		return nil, fmt.Errorf(`tree: model document has neither "root" nor "trees"`)
	}
	f := &Forest{Schema: doc.Schema}
	for _, root := range roots {
		f.Trees = append(f.Trees, &Tree{Schema: doc.Schema, Root: root})
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Decode is DecodeModel for the callers that need a *Tree: the document
// must hold exactly one tree.
func Decode(r io.Reader) (*Tree, error) {
	f, err := DecodeModel(r)
	if err != nil {
		return nil, err
	}
	if len(f.Trees) != 1 {
		return nil, fmt.Errorf("tree: document holds a forest of %d trees; want a single tree", len(f.Trees))
	}
	return f.Trees[0], nil
}

// validateNode checks the subtree at n against the schema: everything the
// walkers and the compiled kernels index with must be in range.
func validateNode(n *Node, s *dataset.Schema) error {
	if n == nil {
		return fmt.Errorf("tree: nil node")
	}
	if len(n.Hist) != s.NumClasses() {
		return fmt.Errorf("tree: node histogram has %d classes; schema has %d", len(n.Hist), s.NumClasses())
	}
	if n.Leaf {
		if n.Label < 0 || n.Label >= s.NumClasses() {
			return fmt.Errorf("tree: leaf label %d out of range", n.Label)
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("tree: leaf has children")
		}
		return nil
	}
	if n.Attr < 0 || n.Attr >= s.NumAttrs() {
		return fmt.Errorf("tree: split attribute %d out of range", n.Attr)
	}
	// The column kernel picks a continuous or a categorical column by the
	// node's kind, so a kind the schema contradicts would index a nil one.
	if n.Kind != s.Attrs[n.Attr].Kind {
		return fmt.Errorf("tree: node splits attribute %d as %v; the schema says %v", n.Attr, n.Kind, s.Attrs[n.Attr].Kind)
	}
	binary := n.Kind == dataset.Continuous || n.Subset != nil
	if len(n.Children) < 2 || binary && len(n.Children) != 2 {
		return fmt.Errorf("tree: internal node has %d children", len(n.Children))
	}
	for _, ch := range n.Children {
		if err := validateNode(ch, s); err != nil {
			return err
		}
	}
	return nil
}
