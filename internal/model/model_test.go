package model

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"quarc/internal/network"
)

func stub(name string) Model {
	return Model{
		Name: name, Description: "test stub", ExampleN: 4,
		CheckN: func(n int) error {
			if n != 4 {
				return fmt.Errorf("want 4")
			}
			return nil
		},
		Build: func(BuildConfig) (*network.Fabric, []Node, error) {
			return nil, nil, fmt.Errorf("stub build")
		},
	}
}

func TestRegisterLookupNames(t *testing.T) {
	Register(stub("zz-stub-a"))
	Register(stub("zz-stub-b"))
	if _, ok := Lookup("ZZ-Stub-A"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if err := CheckSize("zz-stub-a", 5); err == nil {
		t.Fatal("CheckSize accepted an invalid size")
	}
	if err := CheckSize("zz-stub-a", 4); err != nil {
		t.Fatalf("CheckSize rejected a valid size: %v", err)
	}
	if err := CheckSize("no-such-model", 4); err == nil {
		t.Fatal("CheckSize accepted an unknown model")
	}
	if _, _, err := Build("ZZ-Stub-A", BuildConfig{N: 4}); err == nil || err.Error() != "stub build" {
		t.Fatalf("Build did not reach the registered builder: %v", err)
	}
	if _, _, err := Build("no-such-model", BuildConfig{N: 4}); err == nil || !strings.Contains(err.Error(), `unknown model "no-such-model"`) {
		t.Fatalf("Build of an unknown model: %v", err)
	}
}

func TestRegisterRejectsBadModels(t *testing.T) {
	expectPanic := func(name string, m Model) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(m)
	}
	expectPanic("empty name", Model{Name: "", ExampleN: 4, Build: stub("x").Build})
	expectPanic("upper-case name", Model{Name: "Mixed", ExampleN: 4, Build: stub("x").Build})
	expectPanic("no builder", Model{Name: "zz-stub-nobuild", ExampleN: 4})
	expectPanic("no example size", Model{Name: "zz-stub-noex", Build: stub("x").Build})
	Register(stub("zz-stub-dup"))
	expectPanic("duplicate", stub("zz-stub-dup"))
}
