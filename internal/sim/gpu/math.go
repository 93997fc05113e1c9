// Package gpu implements the simulated GPU: pixel images, a software
// rasterizer with fixed-function (GLES 1) and programmable (GLES 2, via the
// minisl shader language) pipelines, and work statistics that the GLES
// libraries convert into virtual-time charges.
//
// The real system drives a closed Tegra 3 GPU through opaque ioctls; the
// simulation replaces the hardware with an actual rasterizer so that the
// expensive paths the paper profiles (full-screen blits, texture uploads,
// shader links) are genuinely expensive.
package gpu

import "math"

// Vec4 is a 4-component float vector (positions, colors, texcoords).
type Vec4 [4]float32

// Add returns v + o.
func (v Vec4) Add(o Vec4) Vec4 { return Vec4{v[0] + o[0], v[1] + o[1], v[2] + o[2], v[3] + o[3]} }

// Sub returns v - o.
func (v Vec4) Sub(o Vec4) Vec4 { return Vec4{v[0] - o[0], v[1] - o[1], v[2] - o[2], v[3] - o[3]} }

// Scale returns v * s.
func (v Vec4) Scale(s float32) Vec4 { return Vec4{v[0] * s, v[1] * s, v[2] * s, v[3] * s} }

// Mul returns the component-wise product.
func (v Vec4) Mul(o Vec4) Vec4 { return Vec4{v[0] * o[0], v[1] * o[1], v[2] * o[2], v[3] * o[3]} }

// Dot returns the 4-component dot product.
func (v Vec4) Dot(o Vec4) float32 {
	return float32(v[0]*o[0]) + float32(v[1]*o[1]) + float32(v[2]*o[2]) + float32(v[3]*o[3])
}

// Every product that feeds a sum in this package is written float32(a*b):
// the conversion rounds the product, which the Go spec says forbids fusing
// it with the sum into one FMA instruction. amd64 never fuses float32, but
// arm64 does; without the roundings, coverage, colours and therefore virtual
// time would differ between the two. scripts/check.sh disassembles an arm64
// build and fails on any fused instruction in this module.

// Mat4 is a 4x4 column-major matrix, matching OpenGL conventions.
type Mat4 [16]float32

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
}

// MulMat returns m * o (column-major composition: apply o first).
func (m Mat4) MulMat(o Mat4) Mat4 {
	var r Mat4
	for c := 0; c < 4; c++ {
		for row := 0; row < 4; row++ {
			var sum float32
			for k := 0; k < 4; k++ {
				sum += float32(m[k*4+row] * o[c*4+k])
			}
			r[c*4+row] = sum
		}
	}
	return r
}

// MulVec returns m * v.
func (m Mat4) MulVec(v Vec4) Vec4 {
	var r Vec4
	for row := 0; row < 4; row++ {
		r[row] = float32(m[row]*v[0]) + float32(m[4+row]*v[1]) + float32(m[8+row]*v[2]) + float32(m[12+row]*v[3])
	}
	return r
}

// Translate returns m composed with a translation.
func (m Mat4) Translate(x, y, z float32) Mat4 {
	t := Identity()
	t[12], t[13], t[14] = x, y, z
	return m.MulMat(t)
}

// Scale returns m composed with a scale.
func (m Mat4) Scale(x, y, z float32) Mat4 {
	s := Identity()
	s[0], s[5], s[10] = x, y, z
	return m.MulMat(s)
}

// RotateZ returns m composed with a rotation about Z by deg degrees,
// matching glRotatef(deg, 0, 0, 1).
func (m Mat4) RotateZ(deg float32) Mat4 {
	rad := float64(deg) * math.Pi / 180
	c, s := float32(math.Cos(rad)), float32(math.Sin(rad))
	r := Identity()
	r[0], r[1], r[4], r[5] = c, s, -s, c
	return m.MulMat(r)
}

// RotateY returns m composed with a rotation about Y by deg degrees.
func (m Mat4) RotateY(deg float32) Mat4 {
	rad := float64(deg) * math.Pi / 180
	c, s := float32(math.Cos(rad)), float32(math.Sin(rad))
	r := Identity()
	r[0], r[2], r[8], r[10] = c, -s, s, c
	return m.MulMat(r)
}

// RotateX returns m composed with a rotation about X by deg degrees.
func (m Mat4) RotateX(deg float32) Mat4 {
	rad := float64(deg) * math.Pi / 180
	c, s := float32(math.Cos(rad)), float32(math.Sin(rad))
	r := Identity()
	r[5], r[6], r[9], r[10] = c, s, -s, c
	return m.MulMat(r)
}

// Ortho returns an orthographic projection matrix (glOrthof).
func Ortho(l, r, b, t, n, f float32) Mat4 {
	m := Identity()
	m[0] = 2 / (r - l)
	m[5] = 2 / (t - b)
	m[10] = -2 / (f - n)
	m[12] = -(r + l) / (r - l)
	m[13] = -(t + b) / (t - b)
	m[14] = -(f + n) / (f - n)
	return m
}

// Frustum returns a perspective projection matrix (glFrustumf).
func Frustum(l, r, b, t, n, f float32) Mat4 {
	var m Mat4
	m[0] = 2 * n / (r - l)
	m[5] = 2 * n / (t - b)
	m[8] = (r + l) / (r - l)
	m[9] = (t + b) / (t - b)
	m[10] = -(f + n) / (f - n)
	m[11] = -1
	m[14] = -2 * f * n / (f - n)
	return m
}

func clampf(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
