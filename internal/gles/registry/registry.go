// Package registry holds the OpenGL ES function and extension inventories of
// the simulated platforms: the GLES 1.0 and 2.0 standard function lists, the
// iOS (Apple/PowerVR-flavoured) and Android (Tegra-flavoured) extension sets,
// and Khronos registry totals.
//
// The tables are curated so that the censuses reproduce the paper's Table 1
// exactly (see registry_test.go, which locks every number):
//
//	GLES 1.0 standard functions   145   (iOS, Android, Khronos)
//	GLES 2.0 standard functions   142
//	Extension functions           iOS 94, Android 42, Khronos 285
//	Common extension functions    27
//	Extensions                    iOS 50, Android 60, Khronos 174
//	Extensions not in Android     33
//	Extensions not in iOS         43
//
// and so that the iOS GLES surface the bridge must cover is exactly 344
// functions (250 distinct standard + 94 extension), matching Table 2's total.
package registry

import (
	"slices"
	"sort"
	"sync"
)

// Extension is one GLES extension and the entry points it adds. Khronos-only
// filler extensions carry only a function count (their entry points are never
// called in the simulation); platform extensions carry real names.
type Extension struct {
	Name      string
	Funcs     []string
	FuncCount int // used when Funcs is empty (Khronos-only extensions)
}

// NumFuncs returns the number of entry points the extension adds.
func (e Extension) NumFuncs() int {
	if len(e.Funcs) > 0 {
		return len(e.Funcs)
	}
	return e.FuncCount
}

// SharedStandard lists the 37 standard functions present in both the GLES
// 1.0 and GLES 2.0 lists of this registry (|v1 ∪ v2| = 250, Table 2 note).
var SharedStandard = []string{
	"glActiveTexture", "glBindBuffer", "glBindTexture", "glBlendFunc",
	"glBufferData", "glBufferSubData", "glClear", "glClearColor",
	"glClearStencil", "glColorMask", "glCullFace", "glDeleteBuffers",
	"glDeleteTextures", "glDepthFunc", "glDepthMask", "glDisable",
	"glDrawArrays", "glDrawElements", "glEnable", "glFinish", "glFlush",
	"glFrontFace", "glGenBuffers", "glGenTextures", "glGetError",
	"glGetIntegerv", "glGetString", "glHint", "glLineWidth", "glPixelStorei",
	"glReadPixels", "glScissor", "glStencilFunc", "glTexImage2D",
	"glTexParameteri", "glTexSubImage2D", "glViewport",
}

// gles1Only lists the 108 GLES 1.0-only functions: the fixed-function
// pipeline, its fixed-point ("x") variants, and the OES entry points device
// GLES1 headers ship as part of the core library.
var gles1Only = []string{
	"glAlphaFunc", "glAlphaFuncx", "glBlendEquationOES",
	"glBlendEquationSeparateOES", "glBlendFuncSeparateOES", "glClearColorx",
	"glClearDepthx", "glClientActiveTexture", "glClipPlanef", "glClipPlanex",
	"glColor4f", "glColor4ub", "glColor4x", "glColorPointer",
	"glCurrentPaletteMatrixOES", "glDepthRangex", "glDisableClientState",
	"glDrawTexfOES", "glDrawTexfvOES", "glDrawTexiOES", "glDrawTexivOES",
	"glDrawTexsOES", "glDrawTexsvOES", "glDrawTexxOES", "glDrawTexxvOES",
	"glEnableClientState", "glFogf", "glFogfv", "glFogx", "glFogxv",
	"glFrustumf", "glFrustumx", "glGetClipPlanef", "glGetClipPlanex",
	"glGetFixedv", "glGetLightfv", "glGetLightxv", "glGetMaterialfv",
	"glGetMaterialxv", "glGetPointerv", "glGetTexEnvfv", "glGetTexEnviv",
	"glGetTexEnvxv", "glGetTexGenfvOES", "glGetTexParameterxv", "glLightf",
	"glLightfv", "glLightModelf", "glLightModelfv", "glLightModelx",
	"glLightModelxv", "glLightx", "glLightxv", "glLineWidthx",
	"glLoadIdentity", "glLoadMatrixf", "glLoadMatrixx",
	"glLoadPaletteFromModelViewMatrixOES", "glLogicOp", "glMaterialf",
	"glMaterialfv", "glMaterialx", "glMaterialxv", "glMatrixIndexPointerOES",
	"glMatrixMode", "glMultMatrixf", "glMultMatrixx", "glMultiTexCoord4f",
	"glMultiTexCoord4x", "glNormal3f", "glNormal3x", "glNormalPointer",
	"glOrthof", "glOrthox", "glPointParameterf", "glPointParameterfv",
	"glPointParameterx", "glPointParameterxv", "glPointSize",
	"glPointSizePointerOES", "glPointSizex", "glPolygonOffsetx",
	"glPopMatrix", "glPushMatrix", "glQueryMatrixxOES", "glRotatef",
	"glRotatex", "glSampleCoveragex", "glScalef", "glScalex", "glShadeModel",
	"glTexCoordPointer", "glTexEnvf", "glTexEnvfv", "glTexEnvi", "glTexEnviv",
	"glTexEnvx", "glTexEnvxv", "glTexGenfOES", "glTexGenfvOES", "glTexGeniOES",
	"glTexGenivOES", "glTexParameterx", "glTexParameterxv", "glTranslatef",
	"glTranslatex", "glVertexPointer", "glWeightPointerOES",
}

// gles2Only lists the 105 GLES 2.0-only functions: the programmable pipeline
// plus the float/utility entry points this registry counts on the 2.0 side.
var gles2Only = []string{
	"glAttachShader", "glBindAttribLocation", "glBindFramebuffer",
	"glBindRenderbuffer", "glBlendColor", "glBlendEquation",
	"glBlendEquationSeparate", "glBlendFuncSeparate",
	"glCheckFramebufferStatus", "glClearDepthf", "glCompileShader",
	"glCompressedTexImage2D", "glCompressedTexSubImage2D",
	"glCopyTexImage2D", "glCopyTexSubImage2D", "glCreateProgram",
	"glCreateShader", "glDeleteFramebuffers", "glDeleteProgram",
	"glDeleteRenderbuffers", "glDeleteShader", "glDepthRangef",
	"glDetachShader", "glDisableVertexAttribArray",
	"glEnableVertexAttribArray", "glFramebufferRenderbuffer",
	"glFramebufferTexture2D", "glGenFramebuffers", "glGenRenderbuffers",
	"glGenerateMipmap", "glGetActiveAttrib", "glGetActiveUniform",
	"glGetAttachedShaders", "glGetAttribLocation", "glGetBooleanv",
	"glGetBufferParameteriv", "glGetFloatv",
	"glGetFramebufferAttachmentParameteriv", "glGetProgramInfoLog",
	"glGetProgramiv", "glGetRenderbufferParameteriv", "glGetShaderInfoLog",
	"glGetShaderPrecisionFormat", "glGetShaderSource", "glGetShaderiv",
	"glGetTexParameterfv", "glGetTexParameteriv", "glGetUniformLocation",
	"glGetUniformfv", "glGetUniformiv", "glGetVertexAttribPointerv",
	"glGetVertexAttribfv", "glGetVertexAttribiv", "glIsBuffer", "glIsEnabled",
	"glIsFramebuffer", "glIsProgram", "glIsRenderbuffer", "glIsShader",
	"glIsTexture", "glLinkProgram", "glPolygonOffset",
	"glReleaseShaderCompiler", "glRenderbufferStorage", "glSampleCoverage",
	"glShaderBinary", "glShaderSource", "glStencilFuncSeparate",
	"glStencilMask", "glStencilMaskSeparate", "glStencilOp",
	"glStencilOpSeparate", "glTexParameterf", "glTexParameterfv",
	"glTexParameteriv", "glUniform1f", "glUniform1fv", "glUniform1i",
	"glUniform1iv", "glUniform2f", "glUniform2fv", "glUniform2i",
	"glUniform2iv", "glUniform3f", "glUniform3fv", "glUniform3i",
	"glUniform3iv", "glUniform4f", "glUniform4fv", "glUniform4i",
	"glUniform4iv", "glUniformMatrix2fv", "glUniformMatrix3fv",
	"glUniformMatrix4fv", "glUseProgram", "glValidateProgram",
	"glVertexAttrib1f", "glVertexAttrib1fv", "glVertexAttrib2f",
	"glVertexAttrib2fv", "glVertexAttrib3f", "glVertexAttrib3fv",
	"glVertexAttrib4f", "glVertexAttrib4fv", "glVertexAttribPointer",
}

// GLES1Standard returns the 145 standard GLES 1.0 functions.
func GLES1Standard() []string { return merged(SharedStandard, gles1Only) }

// GLES2Standard returns the 142 standard GLES 2.0 functions.
func GLES2Standard() []string { return merged(SharedStandard, gles2Only) }

// StandardUnion returns the 250 distinct standard functions across both
// versions.
func StandardUnion() []string { return slices.Clone(standardUnion()) }

// The merged surfaces are built once: every library load and every DLR
// replica asks for them. Their exported accessors return copies, which
// callers may append to or reorder.
var (
	standardUnion  = sync.OnceValue(func() []string { return merged(SharedStandard, gles1Only, gles2Only) })
	iosSurface     = sync.OnceValue(func() []string { return merged(standardUnion(), ExtFuncs(IOSExtensions())) })
	androidSurface = sync.OnceValue(func() []string { return merged(standardUnion(), ExtFuncs(AndroidExtensions())) })
)

// CommonExtensions are implemented by both platforms: 17 extensions adding
// 27 entry points.
var CommonExtensions = []Extension{
	{Name: "GL_OES_EGL_image", Funcs: []string{
		"glEGLImageTargetTexture2DOES", "glEGLImageTargetRenderbufferStorageOES"}},
	{Name: "GL_OES_mapbuffer", Funcs: []string{
		"glMapBufferOES", "glUnmapBufferOES", "glGetBufferPointervOES"}},
	{Name: "GL_OES_vertex_array_object", Funcs: []string{
		"glBindVertexArrayOES", "glDeleteVertexArraysOES",
		"glGenVertexArraysOES", "glIsVertexArrayOES"}},
	{Name: "GL_EXT_discard_framebuffer", Funcs: []string{"glDiscardFramebufferEXT"}},
	{Name: "GL_EXT_debug_marker", Funcs: []string{
		"glInsertEventMarkerEXT", "glPushGroupMarkerEXT", "glPopGroupMarkerEXT"}},
	{Name: "GL_OES_framebuffer_object", Funcs: []string{
		"glGenFramebuffersOES", "glDeleteFramebuffersOES", "glBindFramebufferOES",
		"glCheckFramebufferStatusOES", "glFramebufferTexture2DOES",
		"glFramebufferRenderbufferOES", "glGenRenderbuffersOES",
		"glDeleteRenderbuffersOES", "glBindRenderbufferOES",
		"glRenderbufferStorageOES", "glGetRenderbufferParameterivOES",
		"glIsFramebufferOES", "glIsRenderbufferOES", "glGenerateMipmapOES"}},
	{Name: "GL_OES_depth24"},
	{Name: "GL_OES_rgb8_rgba8"},
	{Name: "GL_OES_packed_depth_stencil"},
	{Name: "GL_OES_texture_mirrored_repeat"},
	{Name: "GL_OES_element_index_uint"},
	{Name: "GL_OES_fbo_render_mipmap"},
	{Name: "GL_OES_texture_float"},
	{Name: "GL_OES_texture_half_float"},
	{Name: "GL_EXT_texture_filter_anisotropic"},
	{Name: "GL_EXT_texture_lod_bias"},
	{Name: "GL_OES_compressed_ETC1_RGB8_texture"},
}

// IOSOnlyExtensions are the 33 extensions iOS implements and the Nexus 7's
// Tegra library does not, adding 67 entry points.
var IOSOnlyExtensions = []Extension{
	{Name: "GL_APPLE_fence", Funcs: []string{
		"glGenFencesAPPLE", "glDeleteFencesAPPLE", "glSetFenceAPPLE",
		"glIsFenceAPPLE", "glTestFenceAPPLE", "glFinishFenceAPPLE",
		"glTestObjectAPPLE", "glFinishObjectAPPLE"}},
	{Name: "GL_APPLE_framebuffer_multisample", Funcs: []string{
		"glRenderbufferStorageMultisampleAPPLE",
		"glResolveMultisampleFramebufferAPPLE"}},
	{Name: "GL_APPLE_copy_texture_levels", Funcs: []string{"glCopyTextureLevelsAPPLE"}},
	{Name: "GL_APPLE_sync", Funcs: []string{
		"glFenceSyncAPPLE", "glIsSyncAPPLE", "glDeleteSyncAPPLE",
		"glClientWaitSyncAPPLE", "glWaitSyncAPPLE", "glGetInteger64vAPPLE",
		"glGetSyncivAPPLE"}},
	{Name: "GL_EXT_debug_label", Funcs: []string{"glLabelObjectEXT", "glGetObjectLabelEXT"}},
	{Name: "GL_EXT_separate_shader_objects", Funcs: []string{
		"glUseProgramStagesEXT", "glActiveShaderProgramEXT",
		"glCreateShaderProgramvEXT", "glGenProgramPipelinesEXT",
		"glDeleteProgramPipelinesEXT", "glBindProgramPipelineEXT",
		"glIsProgramPipelineEXT", "glValidateProgramPipelineEXT",
		"glGetProgramPipelineivEXT", "glGetProgramPipelineInfoLogEXT",
		"glProgramParameteriEXT", "glProgramUniform1iEXT",
		"glProgramUniform1fEXT", "glProgramUniform2iEXT",
		"glProgramUniform2fEXT", "glProgramUniform3iEXT",
		"glProgramUniform3fEXT", "glProgramUniform4iEXT",
		"glProgramUniform4fEXT", "glProgramUniform1ivEXT",
		"glProgramUniform1fvEXT", "glProgramUniform2ivEXT",
		"glProgramUniform2fvEXT", "glProgramUniform3ivEXT",
		"glProgramUniform3fvEXT", "glProgramUniform4ivEXT",
		"glProgramUniform4fvEXT", "glProgramUniformMatrix2fvEXT",
		"glProgramUniformMatrix3fvEXT", "glProgramUniformMatrix4fvEXT"}},
	{Name: "GL_EXT_occlusion_query_boolean", Funcs: []string{
		"glGenQueriesEXT", "glDeleteQueriesEXT", "glIsQueryEXT",
		"glBeginQueryEXT", "glEndQueryEXT", "glGetQueryivEXT",
		"glGetQueryObjectuivEXT"}},
	{Name: "GL_EXT_texture_storage", Funcs: []string{
		"glTexStorage2DEXT", "glTexStorage3DEXT", "glTextureStorage2DEXT"}},
	{Name: "GL_EXT_map_buffer_range", Funcs: []string{
		"glMapBufferRangeEXT", "glFlushMappedBufferRangeEXT"}},
	{Name: "GL_APPLE_texture_range", Funcs: []string{
		"glTextureRangeAPPLE", "glGetTexParameterPointervAPPLE"}},
	{Name: "GL_EXT_instanced_arrays", Funcs: []string{
		"glDrawArraysInstancedEXT", "glDrawElementsInstancedEXT",
		"glVertexAttribDivisorEXT"}},
	{Name: "GL_APPLE_texture_2D_limited_npot"},
	{Name: "GL_APPLE_texture_format_BGRA8888"},
	{Name: "GL_APPLE_texture_max_level"},
	{Name: "GL_APPLE_rgb_422"},
	{Name: "GL_APPLE_texture_pvrtc_srgb"},
	{Name: "GL_APPLE_color_buffer_packed_float"},
	{Name: "GL_APPLE_row_bytes"},
	{Name: "GL_APPLE_clip_distance"},
	{Name: "GL_EXT_shader_framebuffer_fetch"},
	{Name: "GL_EXT_sRGB"},
	{Name: "GL_EXT_pvrtc_sRGB"},
	{Name: "GL_EXT_read_format_bgra"},
	{Name: "GL_EXT_shadow_samplers"},
	{Name: "GL_EXT_texture_rg"},
	{Name: "GL_EXT_color_buffer_half_float"},
	{Name: "GL_EXT_shader_texture_lod"},
	{Name: "GL_IMG_read_format"},
	{Name: "GL_IMG_texture_compression_pvrtc"},
	{Name: "GL_IMG_texture_compression_pvrtc2"},
	{Name: "GL_OES_standard_derivatives"},
	{Name: "GL_OES_texture_float_linear"},
	{Name: "GL_OES_texture_half_float_linear"},
}

// AndroidOnlyExtensions are the 43 extensions the Tegra library implements
// and iOS does not, adding 15 entry points.
var AndroidOnlyExtensions = []Extension{
	{Name: "GL_NV_fence", Funcs: []string{
		"glGenFencesNV", "glDeleteFencesNV", "glSetFenceNV", "glTestFenceNV",
		"glFinishFenceNV", "glIsFenceNV", "glGetFenceivNV"}},
	{Name: "GL_EXT_robustness", Funcs: []string{
		"glGetGraphicsResetStatusEXT", "glReadnPixelsEXT",
		"glGetnUniformfvEXT", "glGetnUniformivEXT"}},
	{Name: "GL_NV_read_buffer", Funcs: []string{"glReadBufferNV"}},
	{Name: "GL_NV_coverage_sample", Funcs: []string{
		"glCoverageMaskNV", "glCoverageOperationNV"}},
	{Name: "GL_NV_draw_texture", Funcs: []string{"glDrawTextureNV"}},
	{Name: "GL_NV_depth_nonlinear"},
	{Name: "GL_NV_texture_npot_2D_mipmap"},
	{Name: "GL_NV_fbo_color_attachments"},
	{Name: "GL_NV_read_depth"},
	{Name: "GL_NV_read_stencil"},
	{Name: "GL_NV_read_depth_stencil"},
	{Name: "GL_NV_pack_subimage"},
	{Name: "GL_NV_texture_compression_s3tc"},
	{Name: "GL_NV_texture_compression_latc"},
	{Name: "GL_NV_platform_binary"},
	{Name: "GL_NV_pixel_buffer_object"},
	{Name: "GL_NV_3dvision_settings"},
	{Name: "GL_NV_EGL_stream_consumer_external"},
	{Name: "GL_NV_bgr"},
	{Name: "GL_NV_texture_array"},
	{Name: "GL_NV_sRGB_formats"},
	{Name: "GL_NV_shader_framebuffer_fetch"},
	{Name: "GL_NV_copy_image"},
	{Name: "GL_NV_framebuffer_vertex_attrib_array"},
	{Name: "GL_NV_texture_border_clamp"},
	{Name: "GL_NV_generate_mipmap_sRGB"},
	{Name: "GL_NV_occlusion_query_samples"},
	{Name: "GL_NV_multiview_draw_buffers_hint"},
	{Name: "GL_EXT_texture_compression_s3tc"},
	{Name: "GL_EXT_texture_compression_dxt1"},
	{Name: "GL_EXT_unpack_subimage"},
	{Name: "GL_EXT_texture_format_BGRA8888"},
	{Name: "GL_EXT_bgra_reorder"},
	{Name: "GL_EXT_frame_time_hint"},
	{Name: "GL_OES_matrix_get"},
	{Name: "GL_OES_point_sprite"},
	{Name: "GL_OES_byte_coordinates"},
	{Name: "GL_OES_fixed_point"},
	{Name: "GL_OES_query_matrix"},
	{Name: "GL_OES_stencil8"},
	{Name: "GL_OES_depth_texture"},
	{Name: "GL_OES_vertex_half_float"},
	{Name: "GL_OES_surfaceless_context"},
}

// khronosOnly are registry extensions neither device implements. Only their
// counts matter (the Khronos column of Table 1): 81 extensions adding 176
// entry points — 40 with three entry points, 28 with two, 13 with none.
var khronosOnly = buildKhronosOnly()

func buildKhronosOnly() []Extension {
	three := []string{
		"GL_AMD_performance_monitor", "GL_ANGLE_framebuffer_blit",
		"GL_ANGLE_instanced_arrays", "GL_ANGLE_translated_shader_source",
		"GL_APPLE_copy_buffer", "GL_ARM_mali_program_binary_ext",
		"GL_EXT_blend_func_extended", "GL_EXT_buffer_storage",
		"GL_EXT_clear_texture", "GL_EXT_clip_control",
		"GL_EXT_copy_image", "GL_EXT_disjoint_timer_query",
		"GL_EXT_draw_buffers", "GL_EXT_draw_buffers_indexed",
		"GL_EXT_draw_elements_base_vertex", "GL_EXT_draw_instanced",
		"GL_EXT_framebuffer_blit_layers", "GL_EXT_geometry_shader_passthrough",
		"GL_EXT_multi_draw_arrays", "GL_EXT_multisampled_render_to_texture",
		"GL_EXT_multiview_draw_buffers", "GL_EXT_polygon_offset_clamp",
		"GL_EXT_primitive_bounding_box", "GL_EXT_raster_multisample",
		"GL_EXT_semaphore", "GL_EXT_separate_depth_stencil",
		"GL_EXT_sparse_texture", "GL_EXT_tessellation_shader_point_size",
		"GL_EXT_texture_border_clamp", "GL_EXT_texture_buffer",
		"GL_EXT_texture_view", "GL_EXT_window_rectangles",
		"GL_IMG_bindless_texture", "GL_IMG_framebuffer_downsample",
		"GL_INTEL_framebuffer_CMAA", "GL_INTEL_performance_query",
		"GL_KHR_blend_equation_advanced", "GL_KHR_debug",
		"GL_KHR_parallel_shader_compile", "GL_KHR_robustness",
	}
	two := []string{
		"GL_MESA_framebuffer_flip_y", "GL_NV_bindless_texture",
		"GL_NV_blend_equation_advanced", "GL_NV_clip_space_w_scaling",
		"GL_NV_conditional_render", "GL_NV_conservative_raster",
		"GL_NV_copy_buffer", "GL_NV_draw_instanced",
		"GL_NV_fragment_coverage_to_color", "GL_NV_framebuffer_blit",
		"GL_NV_framebuffer_mixed_samples", "GL_NV_framebuffer_multisample",
		"GL_NV_gpu_shader5", "GL_NV_instanced_arrays",
		"GL_NV_internalformat_sample_query", "GL_NV_memory_attachment",
		"GL_NV_mesh_shader", "GL_NV_non_square_matrices",
		"GL_NV_path_rendering", "GL_NV_polygon_mode",
		"GL_NV_sample_locations", "GL_NV_scissor_exclusive",
		"GL_NV_texture_barrier", "GL_NV_viewport_array",
		"GL_NV_viewport_swizzle", "GL_OES_copy_image",
		"GL_OES_draw_buffers_indexed", "GL_OES_draw_elements_base_vertex",
	}
	zero := []string{
		"GL_OES_geometry_point_size", "GL_OES_gpu_shader5",
		"GL_OES_primitive_bounding_box", "GL_OES_sample_shading",
		"GL_OES_sample_variables", "GL_OES_shader_image_atomic",
		"GL_OES_shader_io_blocks", "GL_OES_shader_multisample_interpolation",
		"GL_OES_stencil_wrap", "GL_OES_tessellation_point_size",
		"GL_OES_texture_cube_map_array", "GL_OES_texture_stencil8",
		"GL_QCOM_tiled_rendering",
	}
	out := make([]Extension, 0, len(three)+len(two)+len(zero))
	for _, n := range three {
		out = append(out, Extension{Name: n, FuncCount: 3})
	}
	for _, n := range two {
		out = append(out, Extension{Name: n, FuncCount: 2})
	}
	for _, n := range zero {
		out = append(out, Extension{Name: n})
	}
	return out
}

// IOSExtensions returns the 50 extensions the iOS GLES library implements.
func IOSExtensions() []Extension {
	return append(append([]Extension{}, CommonExtensions...), IOSOnlyExtensions...)
}

// AndroidExtensions returns the 60 extensions the Tegra library implements.
func AndroidExtensions() []Extension {
	return append(append([]Extension{}, CommonExtensions...), AndroidOnlyExtensions...)
}

// KhronosExtensions returns the full registry (174 extensions).
func KhronosExtensions() []Extension {
	out := append(append([]Extension{}, CommonExtensions...), IOSOnlyExtensions...)
	out = append(out, AndroidOnlyExtensions...)
	return append(out, khronosOnly...)
}

// ExtFuncs returns the named entry points added by a set of extensions.
func ExtFuncs(exts []Extension) []string {
	var out []string
	for _, e := range exts {
		out = append(out, e.Funcs...)
	}
	sort.Strings(out)
	return out
}

// CountFuncs sums NumFuncs over a set of extensions.
func CountFuncs(exts []Extension) int {
	n := 0
	for _, e := range exts {
		n += e.NumFuncs()
	}
	return n
}

// IOSSurface returns every function an iOS app can call on the iOS GLES
// library: the 250 distinct standard functions plus the 94 iOS extension
// entry points — the 344 functions of Table 2.
func IOSSurface() []string { return slices.Clone(iosSurface()) }

// AndroidSurface returns every function the Tegra library exports.
func AndroidSurface() []string { return slices.Clone(androidSurface()) }

// ExtensionNames returns the sorted names of a set of extensions.
func ExtensionNames(exts []Extension) []string {
	out := make([]string, len(exts))
	for i, e := range exts {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

func merged(lists ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range lists {
		for _, n := range l {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}
