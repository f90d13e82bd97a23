// Package keycheck guards memo keys against input fields they silently
// ignore, which would make a sweep reuse a stale cell. Test support.
package keycheck

import (
	"reflect"
	"testing"
)

// Check perturbs each leaf field of base in turn (nested structs and
// pointees are walked, pointers also set to nil, slices' first element
// bumped, so base must set every pointer and slice) and fails t when a
// perturbation leaves key unchanged, unless exempt gives the field's
// path ("Deg", "Plan.Theta") a reason. variants hand-builds values for
// fields with unexported state; their keys must all be distinct.
func Check[T any](t testing.TB, base T, key func(T) string,
	exempt map[string]string, variants map[string][]func(*T)) {
	t.Helper()
	baseKey := key(base)
	for path, vs := range variants {
		seen := map[string]bool{baseKey: true}
		for i, set := range vs {
			v := base
			set(&v)
			if k := key(v); seen[k] {
				t.Errorf("%s: variant %d repeats an earlier key", path, i)
			} else {
				seen[k] = true
			}
		}
	}
	// try perturbs the field at idx in a copy of base, copying every
	// pointee on the way so base stays untouched.
	try := func(path string, idx []int, set func(reflect.Value)) {
		cp := base
		v := reflect.ValueOf(&cp).Elem()
		for _, i := range idx {
			if v.Kind() == reflect.Pointer {
				fresh := reflect.New(v.Type().Elem())
				fresh.Elem().Set(v.Elem())
				v.Set(fresh)
				v = fresh.Elem()
			}
			v = v.Field(i)
		}
		set(v)
		if key(cp) == baseKey {
			t.Errorf("%s: perturbing it leaves the memo key unchanged; add it to the key or exempt it with a reason", path)
		}
	}
	var walk func(v reflect.Value, prefix string, idx []int)
	walk = func(v reflect.Value, prefix string, idx []int) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			path := prefix + f.Name
			at := append(idx[:len(idx):len(idx)], i)
			_, skip := exempt[path]
			if _, ok := variants[path]; ok || skip {
				continue
			}
			switch {
			case !f.IsExported():
				t.Errorf("%s: unexported field; supply variants or exempt it", path)
			case fv.Kind() == reflect.Struct:
				walk(fv, path+".", at)
			case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
				if fv.IsNil() {
					t.Errorf("%s: base must set the pointer so its fields get checked", path)
					continue
				}
				try(path+" = nil", at, func(v reflect.Value) { v.SetZero() })
				walk(fv.Elem(), path+".", at)
			case fv.Kind() == reflect.Slice:
				if fv.Len() == 0 || !bump(reflect.New(fv.Type().Elem()).Elem()) {
					t.Errorf("%s: base must set a non-empty slice of a basic kind", path)
					continue
				}
				try(path+"[0]", at, func(v reflect.Value) {
					cp := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
					reflect.Copy(cp, v)
					bump(cp.Index(0))
					v.Set(cp)
				})
			case bump(reflect.New(fv.Type()).Elem()):
				try(path, at, func(v reflect.Value) { bump(v) })
			default:
				t.Errorf("%s: cannot perturb a %s; supply variants or exempt it", path, fv.Type())
			}
		}
	}
	walk(reflect.ValueOf(base), "", nil)
}

// bump changes a basic-kind value in place, reporting false for kinds
// it cannot change.
func bump(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		return false
	}
	return true
}
