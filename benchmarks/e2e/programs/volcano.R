# --- height map construction -------------------------------------------------
volcano_heightmap <- function(w, h) {
  hm <- numeric(w * h)
  cx <- w / 2.0
  cy <- h / 2.0
  for (yy in 1:h) {
    for (xx in 1:w) {
      dx <- (xx - cx) / cx
      dy <- (yy - cy) / cy
      d <- sqrt(dx * dx + dy * dy)
      elev <- 100.0 + 90.0 * exp(0.0 - 3.0 * d * d) + 6.0 * sin(7.0 * d) - 30.0 * d
      if (d < 0.18) elev <- elev - 40.0 * (0.18 - d) / 0.18
      hm[[(yy - 1L) * w + xx]] <- elev
    }
  }
  hm
}

volcano_heightmap_int <- function(w, h) {
  hm0 <- volcano_heightmap(w, h)
  hmi <- integer(w * h)
  for (i in 1:(w * h)) hmi[[i]] <- as.integer(hm0[[i]])
  hmi
}

# --- interpolation functions (the user-selectable numerical kernels) ----------
interp_bilinear <- function(hm, w, h, x, y) {
  x0 <- floor(x); y0 <- floor(y)
  fx <- x - x0;   fy <- y - y0
  ix <- as.integer(x0); iy <- as.integer(y0)
  if (ix < 1L) { ix <- 1L; fx <- 0.0 }
  if (iy < 1L) { iy <- 1L; fy <- 0.0 }
  if (ix >= w) { ix <- w - 1L; fx <- 1.0 }
  if (iy >= h) { iy <- h - 1L; fy <- 1.0 }
  base <- (iy - 1L) * w + ix
  h00 <- hm[[base]]
  h10 <- hm[[base + 1L]]
  h01 <- hm[[base + w]]
  h11 <- hm[[base + w + 1L]]
  h00 * (1 - fx) * (1 - fy) + h10 * fx * (1 - fy) + h01 * (1 - fx) * fy + h11 * fx * fy
}

interp_nearest <- function(hm, w, h, x, y) {
  ix <- as.integer(floor(x + 0.5))
  iy <- as.integer(floor(y + 0.5))
  if (ix < 1L) ix <- 1L
  if (iy < 1L) iy <- 1L
  if (ix > w) ix <- w
  if (iy > h) iy <- h
  hm[[(iy - 1L) * w + ix]]
}

# --- the ray marcher ----------------------------------------------------------
trace_rays <- function(hm, w, h, sunx, suny, sunz, interp) {
  img <- numeric(w * h)
  mag <- sqrt(sunx * sunx + suny * suny + sunz * sunz)
  dx <- sunx / mag
  dy <- suny / mag
  dz <- sunz / mag
  for (yy in 1:h) {
    for (xx in 1:w) {
      px <- xx * 1.0
      py <- yy * 1.0
      pz <- interp(hm, w, h, px, py) + 0.01
      lit <- 1.0
      steps <- 0L
      while (steps < 28L && lit > 0.0) {
        px <- px + dx * 2.0
        py <- py + dy * 2.0
        pz <- pz + dz * 2.0
        if (px < 1 || px > w || py < 1 || py > h || pz > 220.0) steps <- 28L
        else {
          ground <- interp(hm, w, h, px, py)
          if (ground > pz) lit <- 0.0
        }
        steps <- steps + 1L
      }
      img[[(yy - 1L) * w + xx]] <- lit
    }
  }
  img
}

# --- manually inlined ray marcher (nearest interpolation fused into the
# --- loop): the paper's "simplified" figure-9 variant
trace_rays_inline <- function(hm, w, h, sunx, suny, sunz) {
  img <- numeric(w * h)
  mag <- sqrt(sunx * sunx + suny * suny + sunz * sunz)
  dx <- sunx / mag
  dy <- suny / mag
  dz <- sunz / mag
  for (yy in 1:h) {
    for (xx in 1:w) {
      px <- xx * 1.0
      py <- yy * 1.0
      ix <- xx; iy <- yy
      pz <- hm[[(iy - 1L) * w + ix]] + 0.01
      lit <- 1.0
      steps <- 0L
      while (steps < 28L && lit > 0.0) {
        px <- px + dx * 2.0
        py <- py + dy * 2.0
        pz <- pz + dz * 2.0
        if (px < 1 || px > w || py < 1 || py > h || pz > 220.0) steps <- 28L
        else {
          ix <- as.integer(floor(px + 0.5))
          iy <- as.integer(floor(py + 0.5))
          if (ix < 1L) ix <- 1L
          if (iy < 1L) iy <- 1L
          if (ix > w) ix <- w
          if (iy > h) iy <- h
          ground <- hm[[(iy - 1L) * w + ix]]
          if (ground > pz) lit <- 0.0
        }
        steps <- steps + 1L
      }
      img[[(yy - 1L) * w + xx]] <- lit
    }
  }
  img
}

# --- the "ggplot" stand-in: map intensities to color buckets.  The scale
# --- parameter is user-controlled (like ggplot's aesthetics); sessions that
# --- change its type make the renderer deoptimize, mirroring the paper's
# --- figure-8 rendering-step measurements
render_image <- function(img, hm, w, h, scale) {
  buckets <- integer(16L)
  for (i in 1:(w * h)) {
    shade <- img[[i]]
    elev <- hm[[i]] * scale
    level <- as.integer((elev - 20.0) / 15.0)
    if (level < 0L) level <- 0L
    if (level > 7L) level <- 7L
    b <- level + 1L
    if (shade > 0.5) b <- b + 8L
    buckets[[b]] <- buckets[[b]] + 1L
  }
  buckets
}

volcano_frame <- function(hm, w, h, sunx, suny, interp) {
  img <- trace_rays(hm, w, h, sunx, suny, 0.35, interp)
  render_image(img, hm, w, h, 1.0)
}
