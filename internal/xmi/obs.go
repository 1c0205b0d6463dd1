package xmi

import (
	"context"

	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// instrument wraps one serialization operation with a span (child of the
// context's active span) recording its format and the bytes moved.
func instrument(ctx context.Context, op, format string, fn func() (int, error)) error {
	_, span := obs.StartSpan(ctx, "xmi."+op)
	span.SetAttr("format", format)
	n, err := fn()
	span.SetAttr("bytes", n)
	span.Fail(err)
	span.End()
	return err
}

// MarshalContext is Marshal under the context's active span.
func MarshalContext(ctx context.Context, m *uml.Model) ([]byte, error) {
	var data []byte
	err := instrument(ctx, "marshal", "xml", func() (int, error) {
		var err error
		data, err = marshal(m)
		return len(data), err
	})
	return data, err
}

// UnmarshalContext is Unmarshal under the context's active span.
func UnmarshalContext(ctx context.Context, data []byte, opts Options) (*uml.Model, error) {
	var m *uml.Model
	err := instrument(ctx, "unmarshal", "xml", func() (int, error) {
		var err error
		m, err = unmarshal(data, opts)
		return len(data), err
	})
	return m, err
}

// MarshalJSONContext is MarshalJSON under the context's active span.
func MarshalJSONContext(ctx context.Context, m *uml.Model) ([]byte, error) {
	var data []byte
	err := instrument(ctx, "marshal", "json", func() (int, error) {
		var err error
		data, err = marshalJSON(m)
		return len(data), err
	})
	return data, err
}

// UnmarshalJSONContext is UnmarshalJSON under the context's active span.
func UnmarshalJSONContext(ctx context.Context, data []byte, opts Options) (*uml.Model, error) {
	var m *uml.Model
	err := instrument(ctx, "unmarshal", "json", func() (int, error) {
		var err error
		m, err = unmarshalJSON(data, opts)
		return len(data), err
	})
	return m, err
}
